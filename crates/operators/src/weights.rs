//! Deployment export of a trained model to single precision.
//!
//! The CPE kernels run in f32 (the paper quotes fractions of *single
//! precision* peak). Exporting also folds the feature normalisation into the
//! first layer and the energy affine map into the last, so a kernel sees
//! plain `features in → atomic energies out` with no pre/post passes.

use tensorkmc_compat::bf16;
use tensorkmc_compat::codec::JsonCodec;
use tensorkmc_compat::json::{Json, JsonError};
use tensorkmc_nnp::NnpModel;

/// Numeric format of the deployed weight stack and the LDM feature rows.
///
/// Accumulation is always f32 — [`Bf16`](Precision::Bf16) only changes what
/// is *stored and moved* (weights over RMA, feature rows over DMA, the LDM
/// double buffers), halving those bytes and the tile footprint. The two
/// formats therefore produce different energy bits; `f32` stays the default
/// and every bit-identity guarantee is stated at `f32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full single precision end to end (the default; bit-stable).
    #[default]
    F32,
    /// bf16 storage with f32 accumulation (halved RMA/DMA/LDM bytes).
    Bf16,
}

impl Precision {
    /// The deck/CLI spelling (`"f32"` / `"bf16"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for Precision {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "f32" => Ok(Precision::F32),
            "bf16" => Ok(Precision::Bf16),
            other => Err(format!("unknown precision {other:?} (expected f32 or bf16)")),
        }
    }
}

// Hand-written codec: the wire spelling is the lowercase knob value
// ("f32"/"bf16"), not the Rust variant name `impl_json_enum!` would emit.
impl JsonCodec for Precision {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_string())
    }

    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = v
            .as_str()
            .map_err(|e| JsonError::new(format!("Precision: {e}")))?;
        s.parse()
            .map_err(|e: String| JsonError::new(format!("Precision: {e}")))
    }
}

/// One dense layer in deployment form.
#[derive(Debug, Clone, PartialEq)]
pub struct F32Layer {
    /// Input width.
    pub c_in: usize,
    /// Output width.
    pub c_out: usize,
    /// Row-major `c_in × c_out` weights.
    pub w: Vec<f32>,
    /// Bias of length `c_out`.
    pub b: Vec<f32>,
    /// Whether ReLU follows.
    pub relu: bool,
}

tensorkmc_compat::impl_json_struct!(F32Layer {
    c_in,
    c_out,
    w,
    b,
    relu
});

/// The deployed convolution stack.
#[derive(Debug, Clone, PartialEq)]
pub struct F32Stack {
    /// Layers in execution order.
    pub layers: Vec<F32Layer>,
}

tensorkmc_compat::impl_json_struct!(F32Stack { layers });

impl F32Stack {
    /// Exports a trained model, folding normalisation and the energy affine
    /// map into the weights.
    ///
    /// Folding: with normalisation `x̂ = (x − μ)/σ`, the first layer
    /// `x̂·W + b` becomes `x·W′ + b′` with `W′ᵢⱼ = Wᵢⱼ/σᵢ` and
    /// `b′ = b − Σᵢ (μᵢ/σᵢ)Wᵢⱼ`. The output map `E = s·y + c` scales the
    /// last layer's weights and bias by `s` and adds `c` to its bias.
    pub fn from_model(model: &NnpModel) -> Self {
        let n_layers = model.layers.len();
        let layers = model
            .layers
            .iter()
            .enumerate()
            .map(|(li, l)| {
                let (c_in, c_out) = (l.in_dim(), l.out_dim());
                let mut w = vec![0f32; c_in * c_out];
                let mut b: Vec<f64> = l.b.clone();
                for i in 0..c_in {
                    for j in 0..c_out {
                        let mut wij = l.w.get(i, j);
                        if li == 0 {
                            wij /= model.norm.std[i];
                        }
                        if li == n_layers - 1 {
                            wij *= model.energy_scale;
                        }
                        w[i * c_out + j] = wij as f32;
                    }
                }
                if li == 0 {
                    for j in 0..c_out {
                        let mut shift = 0.0;
                        for i in 0..c_in {
                            shift += model.norm.mean[i] / model.norm.std[i] * l.w.get(i, j);
                        }
                        b[j] -= shift;
                    }
                }
                if li == n_layers - 1 {
                    for v in &mut b {
                        *v = *v * model.energy_scale + model.energy_shift;
                    }
                }
                F32Layer {
                    c_in,
                    c_out,
                    w,
                    b: b.into_iter().map(|v| v as f32).collect(),
                    relu: l.relu,
                }
            })
            .collect();
        F32Stack { layers }
    }

    /// Input feature width.
    #[inline]
    pub fn c_in(&self) -> usize {
        self.layers[0].c_in
    }

    /// Output width (1 for an energy model).
    #[inline]
    pub fn c_out(&self) -> usize {
        self.layers.last().unwrap().c_out
    }

    /// Channel widths, input first.
    pub fn channels(&self) -> Vec<usize> {
        let mut c = vec![self.c_in()];
        c.extend(self.layers.iter().map(|l| l.c_out));
        c
    }

    /// Total weight + bias bytes (what the RMA distribution moves).
    pub fn weight_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| (l.w.len() + l.b.len()) * std::mem::size_of::<f32>())
            .sum()
    }

    /// The widest intermediate activation (elements per batch row) — sizing
    /// information for LDM tiles.
    pub fn max_width(&self) -> usize {
        self.channels().into_iter().max().unwrap()
    }

    /// Multiply-add work of one input row through the stack,
    /// `Σ 2·c_in·c_out` FLOPs.
    pub fn flops_per_row(&self) -> u64 {
        self.layers
            .iter()
            .map(|l| 2 * (l.c_in * l.c_out) as u64)
            .sum()
    }
}

/// One dense layer quantized to bf16 storage (accumulation stays f32).
#[derive(Debug, Clone, PartialEq)]
pub struct Bf16Layer {
    /// Input width.
    pub c_in: usize,
    /// Output width.
    pub c_out: usize,
    /// Row-major `c_in × c_out` weights as bf16 bit patterns.
    pub w: Vec<u16>,
    /// Bias of length `c_out` as bf16 bit patterns.
    pub b: Vec<u16>,
    /// Whether ReLU follows.
    pub relu: bool,
}

/// The deployed stack quantized to bf16 — built once per evaluator from the
/// f32 export, so quantization error enters exactly once, at construction.
///
/// Both weights and biases are stored as `u16` bit patterns, so
/// [`weight_bytes`](Bf16Stack::weight_bytes) is exactly half the f32
/// stack's — the factor the weight-RMA and LDM-residency accounting of the
/// bf16 big-fusion kernel inherits with no hard-coded sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Bf16Stack {
    /// Layers in execution order.
    pub layers: Vec<Bf16Layer>,
}

impl Bf16Stack {
    /// Quantizes a deployed f32 stack (round to nearest even per element).
    pub fn from_f32(stack: &F32Stack) -> Self {
        Bf16Stack {
            layers: stack
                .layers
                .iter()
                .map(|l| Bf16Layer {
                    c_in: l.c_in,
                    c_out: l.c_out,
                    w: bf16::quantize(&l.w),
                    b: bf16::quantize(&l.b),
                    relu: l.relu,
                })
                .collect(),
        }
    }

    /// Input feature width.
    #[inline]
    pub fn c_in(&self) -> usize {
        self.layers[0].c_in
    }

    /// Output width (1 for an energy model).
    #[inline]
    pub fn c_out(&self) -> usize {
        self.layers.last().unwrap().c_out
    }

    /// Total weight + bias bytes (what the RMA distribution moves) — half
    /// the f32 figure, derived from element count × element width.
    pub fn weight_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| (l.w.len() + l.b.len()) * std::mem::size_of::<u16>())
            .sum()
    }

    /// The widest intermediate activation (elements per batch row).
    pub fn max_width(&self) -> usize {
        let mut c = self.c_in();
        for l in &self.layers {
            c = c.max(l.c_out);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorkmc_compat::rng::StdRng;
    use tensorkmc_nnp::{Matrix, ModelConfig, NnpModel};
    use tensorkmc_potential::FeatureSet;

    fn trained_like_model() -> NnpModel {
        let fs = FeatureSet::small(4);
        let cfg = ModelConfig {
            channels: vec![fs.n_features(), 16, 1],
            rcut: 6.5,
        };
        let mut m = NnpModel::new(fs, &cfg, &mut StdRng::seed_from_u64(3));
        // Non-trivial normalisation and energy map, as after training.
        m.norm.mean = (0..8).map(|i| 0.1 * i as f64).collect();
        m.norm.std = (0..8).map(|i| 0.5 + 0.25 * i as f64).collect();
        m.energy_shift = -4.2;
        m.energy_scale = 0.37;
        m
    }

    #[test]
    fn folded_stack_matches_model_to_f32_precision() {
        let model = trained_like_model();
        let stack = F32Stack::from_model(&model);
        let feats = Matrix::from_fn(5, 8, |r, c| 0.2 + 0.13 * (r as f64) + 0.07 * (c as f64));
        let want = model.atomic_energies(&feats);

        // Run the folded stack in plain f64-accumulated f32 arithmetic.
        for r in 0..5 {
            let mut x: Vec<f32> = feats.row(r).iter().map(|&v| v as f32).collect();
            for l in &stack.layers {
                let mut y = vec![0f32; l.c_out];
                for j in 0..l.c_out {
                    let mut acc = l.b[j];
                    for i in 0..l.c_in {
                        acc += x[i] * l.w[i * l.c_out + j];
                    }
                    y[j] = if l.relu { acc.max(0.0) } else { acc };
                }
                x = y;
            }
            let got = x[0] as f64;
            assert!(
                (got - want[r]).abs() < 1e-3 * (1.0 + want[r].abs()),
                "row {r}: {got} vs {}",
                want[r]
            );
        }
    }

    #[test]
    fn channel_metadata() {
        let stack = F32Stack::from_model(&trained_like_model());
        assert_eq!(stack.channels(), vec![8, 16, 1]);
        assert_eq!(stack.c_in(), 8);
        assert_eq!(stack.c_out(), 1);
        assert_eq!(stack.max_width(), 16);
        assert_eq!(stack.weight_bytes(), (8 * 16 + 16 + 16 + 1) * 4);
    }

    #[test]
    fn bf16_stack_is_exactly_half_the_bytes() {
        let stack = F32Stack::from_model(&trained_like_model());
        let q = Bf16Stack::from_f32(&stack);
        assert_eq!(q.weight_bytes() * 2, stack.weight_bytes());
        assert_eq!(q.c_in(), stack.c_in());
        assert_eq!(q.c_out(), stack.c_out());
        assert_eq!(q.max_width(), stack.max_width());
    }

    #[test]
    fn bf16_stack_quantizes_within_half_ulp() {
        let stack = F32Stack::from_model(&trained_like_model());
        let q = Bf16Stack::from_f32(&stack);
        for (l, ql) in stack.layers.iter().zip(&q.layers) {
            for (&w, &qw) in l.w.iter().zip(&ql.w) {
                let back = tensorkmc_compat::bf16::widen(qw);
                assert!((back - w).abs() <= w.abs() * 3.9062503e-3);
            }
        }
    }

    #[test]
    fn precision_wire_format_and_parsing() {
        use tensorkmc_compat::codec::JsonCodec;
        assert_eq!(Precision::default(), Precision::F32);
        assert_eq!(Precision::F32.to_json().to_string(), "\"f32\"");
        assert_eq!(Precision::Bf16.to_json().to_string(), "\"bf16\"");
        for p in [Precision::F32, Precision::Bf16] {
            assert_eq!(Precision::from_json(&p.to_json()).unwrap(), p);
            assert_eq!(p.as_str().parse::<Precision>().unwrap(), p);
        }
        assert!("fp16".parse::<Precision>().is_err());
        assert!(Precision::from_json(&tensorkmc_compat::json::Json::Str(
            "f64".to_string()
        ))
        .is_err());
    }

    #[test]
    fn paper_model_weights_fit_one_ldm_only_barely() {
        // The full (64,128,128,128,64,1) stack is ~195 KiB of f32 weights —
        // close to the 256 KiB LDM, which is why the paper distributes
        // layers across CPE columns instead of replicating the model.
        let fs = FeatureSet::paper_32();
        let cfg = ModelConfig::paper(&fs);
        let m = NnpModel::new(fs, &cfg, &mut StdRng::seed_from_u64(1));
        let stack = F32Stack::from_model(&m);
        let kb = stack.weight_bytes() / 1024;
        assert!((150..256).contains(&kb), "weights {kb} KiB");
    }
}

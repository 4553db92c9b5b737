//! The ground a run stands on: the checkout root, the scratch tree under
//! `benchmark/work/`, the release `tensorkmc` binary, and the model files
//! the decks point at.
//!
//! Everything the harness writes goes under `benchmark/work/` (plus the
//! committed `benchmark/results/`), so a run reads and writes only inside
//! its checkout.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use tensorkmc::input::ModelSource;
use tensorkmc::nnp::dataset::{CorpusConfig, Dataset};
use tensorkmc::nnp::{ModelConfig, NnpModel, TrainConfig, Trainer};
use tensorkmc::potential::{EamPotential, FeatureSet};
use tensorkmc::quickstart;
use tensorkmc_compat::codec::JsonCodec;
use tensorkmc_compat::rng::StdRng;

/// Seed of both prepared models. The model is part of the program under
/// test, not of the workload input, so it does not follow `--seed`.
pub const MODEL_SEED: u64 = 42;

/// Longest any child process of a run may take before it is killed.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(120);

/// Paths of one checkout.
#[derive(Debug, Clone)]
pub struct Ground {
    /// The checkout root (holds `Cargo.toml` and `benchmark/`).
    pub root: PathBuf,
    /// `benchmark/work/`.
    pub work: PathBuf,
    /// The release `tensorkmc` binary (built by [`Ground::build_binary`]).
    pub bin: PathBuf,
}

impl Ground {
    /// Locates the checkout from the current directory, which must be its
    /// root — that is where the driver and `cargo run --manifest-path
    /// benchmark/Cargo.toml` start the harness.
    pub fn locate() -> Result<Self, String> {
        let root = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
        if !root.join("Cargo.toml").is_file() || !root.join("benchmark/Cargo.toml").is_file() {
            return Err(format!(
                "{} is not the repository root (need Cargo.toml and benchmark/Cargo.toml); \
                 run the harness from the root of a checkout",
                root.display()
            ));
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => root.join(dir), // absolute paths survive the join
            None => root.join("target"),
        };
        let work = root.join("benchmark/work");
        std::fs::create_dir_all(&work)
            .map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        Ok(Ground {
            bin: target.join("release/tensorkmc"),
            root,
            work,
        })
    }

    /// Builds the release `tensorkmc` binary from the checkout's sources
    /// (a no-op taking a fraction of a second when it is fresh).
    pub fn build_binary(&self) -> Result<(), String> {
        let status = Command::new("cargo")
            .args(["build", "--release", "--quiet", "--bin", "tensorkmc"])
            .current_dir(&self.root)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() || !self.bin.is_file() {
            return Err(format!(
                "building the tensorkmc binary failed ({status}); expected {}",
                self.bin.display()
            ));
        }
        Ok(())
    }

    /// A fresh, empty directory `benchmark/work/<name>`.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// The dumped `train_small(42)` model (`model.source = "file"` decks).
    pub fn small_model_path(&self) -> PathBuf {
        self.work.join("models/small_seed42.json")
    }

    /// The paper-architecture model of `aging_kernel`.
    pub fn paper_model_path(&self) -> PathBuf {
        self.work.join("models/paper_arch_seed42.json")
    }

    /// Trains and writes whichever model file is missing. Deterministic
    /// (fixed seeds), so a cached file equals a regenerated one.
    pub fn prepare_models(&self) -> Result<(), String> {
        let dir = self.work.join("models");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let write = |path: PathBuf, model: NnpModel| {
            tensorkmc::fsutil::write_atomic(&path.to_string_lossy(), model.to_json_string())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))
        };
        if !self.small_model_path().is_file() {
            write(
                self.small_model_path(),
                quickstart::train_small_model(MODEL_SEED),
            )?;
        }
        if !self.paper_model_path().is_file() {
            write(self.paper_model_path(), train_paper_arch_model(MODEL_SEED))?;
        }
        Ok(())
    }

    /// Makes sure the model files exist, training them in a child process
    /// (`<harness> prepare`) so the trainer's allocations never count
    /// towards the measuring process's `VmHWM`.
    pub fn ensure_prepared(&self) -> Result<(), String> {
        if self.small_model_path().is_file() && self.paper_model_path().is_file() {
            return Ok(());
        }
        let exe = std::env::current_exe().map_err(|e| format!("no current exe: {e}"))?;
        let status = Command::new(exe)
            .arg("prepare")
            .current_dir(&self.root)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run the prepare step: {e}"))?;
        if !status.success() {
            return Err(format!("the prepare step failed ({status})"));
        }
        Ok(())
    }

    /// A deck's `model` entry pointing at a prepared model file.
    pub fn file_model(path: &Path) -> ModelSource {
        ModelSource::File {
            path: path.to_string_lossy().into_owned(),
        }
    }

    /// Loads a prepared model file.
    pub fn load_model(&self, path: &Path) -> Result<NnpModel, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        NnpModel::from_json_str(&text).map_err(|e| format!("bad model {}: {e}", path.display()))
    }

    /// Runs the real binary in `cwd` to completion; stdout is returned,
    /// a non-zero exit or a timeout is an error carrying stderr.
    pub fn run_binary(&self, cwd: &Path, args: &[&str]) -> Result<String, String> {
        let out_path = cwd.join("child.stdout");
        let err_path = cwd.join("child.stderr");
        let file = |p: &Path| {
            std::fs::File::create(p).map_err(|e| format!("cannot create {}: {e}", p.display()))
        };
        let child = Command::new(&self.bin)
            .args(args)
            .current_dir(cwd)
            .stdin(Stdio::null())
            .stdout(file(&out_path)?)
            .stderr(file(&err_path)?)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.bin.display()))?;
        let status = wait_or_kill(child, CHILD_TIMEOUT)?;
        let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
        if !status.success() {
            return Err(format!(
                "tensorkmc {args:?} exited with {status}: {}",
                read(&err_path).trim()
            ));
        }
        Ok(read(&out_path))
    }
}

/// Waits for `child`; past `timeout` it is killed (and reaped) and the call
/// fails. The harness never leaves a process behind.
pub fn wait_or_kill(
    mut child: Child,
    timeout: Duration,
) -> Result<std::process::ExitStatus, String> {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(status),
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("child {} timed out after {timeout:?}", child.id()));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("cannot wait for child: {e}"));
            }
        }
    }
}

/// The `aging_kernel` model: the paper's architecture (32-component
/// descriptor, 64-128-128-128-64-1, rcut 6.5 Å) trained briefly against
/// the EAM oracle — the same recipe as `quickstart::train_small_model`
/// with the paper's shapes. Kernel cost does not depend on the weights;
/// training just keeps the energies physical so the trajectory is an
/// aging run and not noise.
fn train_paper_arch_model(seed: u64) -> NnpModel {
    let pot = EamPotential::fe_cu();
    let corpus = CorpusConfig {
        n_structures: 40,
        ..CorpusConfig::default()
    };
    let data = Dataset::generate(&corpus, &pot, &mut StdRng::seed_from_u64(seed));
    let (train, _) = data.split(32, &mut StdRng::seed_from_u64(seed + 1));
    let fs = FeatureSet::paper_32();
    let cfg = ModelConfig::paper(&fs);
    let model = NnpModel::new(fs, &cfg, &mut StdRng::seed_from_u64(seed + 2));
    let mut trainer = Trainer::new(model, &train);
    let tcfg = TrainConfig {
        epochs: 20,
        batch: 8,
        ..TrainConfig::default()
    };
    trainer.run(&tcfg, &mut StdRng::seed_from_u64(seed + 3));
    trainer.model
}

//! The fast feature operator (paper §3.4).
//!
//! Given the shared geometry tables (CET/NET), the feature TABLE and one
//! vacancy system's VET, compute the descriptor rows of every jump-region
//! site for the initial state **and** all 8 candidate final states. A final
//! state `k` is realised by logically swapping `VET[0]` (the vacancy) with
//! `VET[k]` (the 1NN atom in direction `k`) — no physical array shuffle.
//!
//! Two execution paths:
//! * [`features_serial`] — single-threaded, the "MPE"/x86 path of Fig. 11;
//! * [`features_cpe`] — region sites distributed circularly over the CPE
//!   pool, with NET rows, the VET copy and the TABLE staged into LDM via
//!   counted DMA, exactly the data placement the paper describes.
//!
//! Each has a **delta** variant ([`features_serial_delta`],
//! [`features_cpe_delta`]) built on the affected-row index
//! ([`FeatureOpTables::affected`]): under the swap semantics a region
//! site's row differs between state 0 and state `k` only if its NET row
//! references CET site 0 or site `k`, so the delta paths compute the
//! state-0 block fully and then recompute *from scratch* only the affected
//! rows of each final state — same accumulation order, hence bit-identical
//! to the dense output. [`RowInterner`] and [`UniqueRowPlan`] then
//! deduplicate bit-identical rows across states (and across systems in a
//! batch) so the NNP kernel infers each distinct row exactly once.

use crate::error::OperatorError;
use crate::N_FINAL_STATES;
use tensorkmc_lattice::{RegionGeometry, Species};
use tensorkmc_potential::FeatureTable;
use tensorkmc_sunway::CoreGroup;

/// Flat, DMA-friendly form of the shared tabulations.
#[derive(Debug, Clone)]
pub struct FeatureOpTables {
    /// Jump-region sites (`N_region`).
    pub n_region: usize,
    /// Total vacancy-system sites (`N_all`).
    pub n_all: usize,
    /// Neighbours per site (`N_local`).
    pub n_local: usize,
    /// Descriptor components per element channel (`N_dim`).
    pub n_dim: usize,
    /// Full per-atom feature width (`N_dim × N_el`).
    pub n_features: usize,
    /// Number of distance shells.
    pub n_shells: usize,
    /// NET neighbour site ids, `n_region × n_local`, row-major.
    pub net_site: Vec<u32>,
    /// NET neighbour shells, `n_region × n_local`, row-major.
    pub net_shell: Vec<u8>,
    /// The feature TABLE in f32, `n_shells × n_dim` row-major.
    pub table: Vec<f32>,
    /// The affected-row index: for each final state `k ∈ 1..=8`, entry
    /// `k - 1` holds the sorted region sites whose NET row references CET
    /// site 0 or site `k` — the only rows whose features can differ from
    /// state 0 when sites 0 and `k` are swapped. Purely geometric:
    /// computed once per geometry, independent of any VET.
    pub affected: [Vec<u32>; N_FINAL_STATES],
    /// Per region site: bit `k - 1` is set iff the site appears in
    /// `affected[k - 1]`. One byte per site, DMA-friendly for the CPE path.
    pub affected_mask: Vec<u8>,
}

impl FeatureOpTables {
    /// Flattens a region geometry + feature table.
    pub fn new(geom: &RegionGeometry, table: &FeatureTable) -> Self {
        let n_region = geom.n_region();
        let n_local = geom.n_local();
        let n_dim = table.features.n_dim();
        let mut net_site = Vec::with_capacity(n_region * n_local);
        let mut net_shell = Vec::with_capacity(n_region * n_local);
        for row in &geom.neighbors {
            debug_assert_eq!(row.len(), n_local);
            for e in row {
                net_site.push(e.site);
                net_shell.push(e.shell);
            }
        }
        let n_shells = table.n_shells;
        let mut flat = Vec::with_capacity(n_shells * n_dim);
        for s in 0..n_shells {
            for &v in table.row(s as u8) {
                flat.push(v as f32);
            }
        }
        let mut affected: [Vec<u32>; N_FINAL_STATES] = Default::default();
        let mut affected_mask = vec![0u8; n_region];
        for ri in 0..n_region {
            let row = &net_site[ri * n_local..(ri + 1) * n_local];
            for k in 1..=N_FINAL_STATES as u32 {
                if row.iter().any(|&s| s == 0 || s == k) {
                    affected[k as usize - 1].push(ri as u32);
                    affected_mask[ri] |= 1 << (k - 1);
                }
            }
        }
        FeatureOpTables {
            n_region,
            n_all: geom.n_all(),
            n_local,
            n_dim,
            n_features: n_dim * tensorkmc_lattice::species::N_ELEMENTS,
            n_shells,
            net_site,
            net_shell,
            table: flat,
            affected,
            affected_mask,
        }
    }

    /// Sorted region sites whose features differ from state 0 in final
    /// state `k` (`1..=8`).
    #[inline]
    pub fn affected_sites(&self, k: usize) -> &[u32] {
        &self.affected[k - 1]
    }

    /// Rows the delta paths compute per system: the full state-0 block
    /// plus the affected rows of each final state (before content dedup).
    pub fn packed_rows(&self) -> usize {
        self.n_region + self.affected.iter().map(Vec::len).sum::<usize>()
    }

    /// Validates a VET buffer against the geometry.
    pub fn check_vet(&self, vet: &[Species]) -> Result<(), OperatorError> {
        if vet.len() != self.n_all {
            return Err(OperatorError::VetShape {
                expected: self.n_all,
                got: vet.len(),
            });
        }
        Ok(())
    }

    /// Effective species of CET site `site` in state `state`
    /// (0 = initial, `1..=8` = after swapping sites 0 and `state`).
    #[inline]
    pub fn species_in_state(vet: &[Species], state: usize, site: u32) -> Species {
        if state == 0 {
            return vet[site as usize];
        }
        let k = state as u32;
        match site {
            0 => vet[k as usize],
            s if s == k => vet[0],
            s => vet[s as usize],
        }
    }

    /// Computes the feature row of one region site in one state into `out`
    /// (length `n_features`, zeroed by the caller).
    #[allow(clippy::too_many_arguments)] // mirrors the CPE kernel signature
    #[inline]
    fn site_features_into(
        &self,
        vet: &[Species],
        state: usize,
        ri: usize,
        net_site: &[u32],
        net_shell: &[u8],
        table: &[f32],
        out: &mut [f32],
    ) {
        debug_assert_eq!(net_site.len(), self.n_local);
        let nd = self.n_dim;
        for (&site, &shell) in net_site.iter().zip(net_shell) {
            let sp = Self::species_in_state(vet, state, site);
            let Some(e) = sp.element_index() else {
                continue;
            };
            let trow = &table[shell as usize * nd..(shell as usize + 1) * nd];
            let orow = &mut out[e * nd..(e + 1) * nd];
            for (o, &t) in orow.iter_mut().zip(trow) {
                *o += t;
            }
        }
        let _ = ri;
    }
}

/// Feature rows of all 1+8 states: `states[s]` is row-major
/// `n_region × n_features`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateFeatures {
    /// Region sites per state.
    pub n_region: usize,
    /// Feature width.
    pub n_features: usize,
    /// One flat block per state (index 0 = initial).
    pub states: Vec<Vec<f32>>,
}

impl StateFeatures {
    /// Feature row of site `ri` in state `s`.
    #[inline]
    pub fn row(&self, s: usize, ri: usize) -> &[f32] {
        &self.states[s][ri * self.n_features..(ri + 1) * self.n_features]
    }
}

/// Number of states computed per vacancy system (initial + 8 finals).
pub const N_STATES: usize = 1 + crate::N_FINAL_STATES;

/// Compact delta-state feature rows: the dense state-0 block plus, per
/// final state, only the recomputed rows of the affected sites (in
/// [`FeatureOpTables::affected`] order). Every row a dense computation
/// would produce is either here or bit-identical to its state-0 row.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaFeatures {
    /// Region sites per state.
    pub n_region: usize,
    /// Feature width.
    pub n_features: usize,
    /// Dense state-0 block, row-major `n_region × n_features`.
    pub state0: Vec<f32>,
    /// Per final state `k` (entry `k - 1`): recomputed affected rows,
    /// row-major `affected[k-1].len() × n_features`.
    pub affected: [Vec<f32>; N_FINAL_STATES],
}

impl DeltaFeatures {
    /// State-0 feature row of region site `ri`.
    #[inline]
    pub fn state0_row(&self, ri: usize) -> &[f32] {
        &self.state0[ri * self.n_features..(ri + 1) * self.n_features]
    }

    /// `j`-th affected row of final state `k` (`1..=8`); `j` indexes into
    /// `FeatureOpTables::affected[k-1]`.
    #[inline]
    pub fn affected_row(&self, k: usize, j: usize) -> &[f32] {
        &self.affected[k - 1][j * self.n_features..(j + 1) * self.n_features]
    }

    /// Expands to the dense 9-state layout: each final-state block starts
    /// as a bit-copy of state 0 and the affected rows are overwritten.
    pub fn to_dense(&self, tables: &FeatureOpTables) -> StateFeatures {
        let nf = self.n_features;
        let mut states = Vec::with_capacity(N_STATES);
        states.push(self.state0.clone());
        for k in 1..=N_FINAL_STATES {
            let mut block = self.state0.clone();
            for (j, &ri) in tables.affected_sites(k).iter().enumerate() {
                let ri = ri as usize;
                block[ri * nf..(ri + 1) * nf].copy_from_slice(self.affected_row(k, j));
            }
            states.push(block);
        }
        StateFeatures {
            n_region: self.n_region,
            n_features: nf,
            states,
        }
    }
}

/// Serial (MPE / x86) feature computation.
pub fn features_serial(
    tables: &FeatureOpTables,
    vet: &[Species],
) -> Result<StateFeatures, OperatorError> {
    tables.check_vet(vet)?;
    let nf = tables.n_features;
    let mut states = Vec::with_capacity(N_STATES);
    for s in 0..N_STATES {
        let mut block = vec![0f32; tables.n_region * nf];
        for ri in 0..tables.n_region {
            let net_site = &tables.net_site[ri * tables.n_local..(ri + 1) * tables.n_local];
            let net_shell = &tables.net_shell[ri * tables.n_local..(ri + 1) * tables.n_local];
            tables.site_features_into(
                vet,
                s,
                ri,
                net_site,
                net_shell,
                &tables.table,
                &mut block[ri * nf..(ri + 1) * nf],
            );
        }
        states.push(block);
    }
    Ok(StateFeatures {
        n_region: tables.n_region,
        n_features: nf,
        states,
    })
}

/// Serial delta-state feature computation: the state-0 block in full, then
/// per final state only the affected rows — each recomputed from scratch in
/// the same NET accumulation order as [`features_serial`], so every
/// produced row is bit-identical to the dense path's.
pub fn features_serial_delta(
    tables: &FeatureOpTables,
    vet: &[Species],
) -> Result<DeltaFeatures, OperatorError> {
    tables.check_vet(vet)?;
    let nf = tables.n_features;
    let nl = tables.n_local;
    let mut state0 = vec![0f32; tables.n_region * nf];
    for ri in 0..tables.n_region {
        tables.site_features_into(
            vet,
            0,
            ri,
            &tables.net_site[ri * nl..(ri + 1) * nl],
            &tables.net_shell[ri * nl..(ri + 1) * nl],
            &tables.table,
            &mut state0[ri * nf..(ri + 1) * nf],
        );
    }
    let mut affected: [Vec<f32>; N_FINAL_STATES] = Default::default();
    for k in 1..=N_FINAL_STATES {
        let sites = tables.affected_sites(k);
        let mut block = vec![0f32; sites.len() * nf];
        for (j, &ri) in sites.iter().enumerate() {
            let ri = ri as usize;
            tables.site_features_into(
                vet,
                k,
                ri,
                &tables.net_site[ri * nl..(ri + 1) * nl],
                &tables.net_shell[ri * nl..(ri + 1) * nl],
                &tables.table,
                &mut block[j * nf..(j + 1) * nf],
            );
        }
        affected[k - 1] = block;
    }
    Ok(DeltaFeatures {
        n_region: tables.n_region,
        n_features: nf,
        state0,
        affected,
    })
}

/// CPE-parallel feature computation with LDM staging and counted DMA
/// (paper §3.4): region sites are assigned to CPEs circularly; each CPE
/// stages the VET, the TABLE and its NET rows into LDM, computes 1+8 states
/// per site, and DMAs the finished rows back.
pub fn features_cpe(
    cg: &CoreGroup,
    tables: &FeatureOpTables,
    vet: &[Species],
) -> Result<StateFeatures, OperatorError> {
    tables.check_vet(vet)?;
    let nf = tables.n_features;
    let vet_bytes: Vec<u8> = vet.iter().map(|&s| s as u8).collect();
    let n_cpes = cg.config().n_cpes;

    // Each CPE returns its site ids plus one flat main-memory buffer of
    // finished 9-state blocks, in visit order.
    let per_cpe: Vec<(Vec<u32>, Vec<f32>)> = cg.run_collect(|ctx| {
        let id = ctx.id();
        // LDM-resident shared tables (paper: "the NET array, a copy of the
        // VET vector, and the precomputed TABLE are stored in LDM").
        let mut vet_ldm = ctx.ldm_alloc::<u8>(tables.n_all)?;
        ctx.dma_get(&vet_bytes, &mut vet_ldm)?;
        let mut table_ldm = ctx.ldm_alloc::<f32>(tables.table.len())?;
        ctx.dma_get(&tables.table, &mut table_ldm)?;
        let vet_local: Vec<Species> = vet_ldm
            .iter()
            .map(|&b| Species::from_u8(b).expect("valid species byte"))
            .collect();

        let mut ids = Vec::new();
        let mut out = Vec::new();
        let mut net_site_ldm = ctx.ldm_alloc::<u32>(tables.n_local)?;
        let mut net_shell_ldm = ctx.ldm_alloc::<u8>(tables.n_local)?;
        // 1 + N^f state rows kept in LDM until all done (paper §3.4);
        // allocated once and zeroed per site, not reallocated in the loop.
        let mut rows_ldm = ctx.ldm_alloc::<f32>(N_STATES * nf)?;
        let mut ri = id;
        while ri < tables.n_region {
            ctx.dma_get(
                &tables.net_site[ri * tables.n_local..(ri + 1) * tables.n_local],
                &mut net_site_ldm,
            )?;
            ctx.dma_get(
                &tables.net_shell[ri * tables.n_local..(ri + 1) * tables.n_local],
                &mut net_shell_ldm,
            )?;
            rows_ldm.fill(0.0);
            for s in 0..N_STATES {
                tables.site_features_into(
                    &vet_local,
                    s,
                    ri,
                    &net_site_ldm,
                    &net_shell_ldm,
                    &table_ldm,
                    &mut rows_ldm[s * nf..(s + 1) * nf],
                );
                // One table lookup + add per neighbour per component.
                ctx.flops((tables.n_local * tables.n_dim) as u64);
            }
            // DMA the finished block straight into the CPE's output run.
            let start = out.len();
            out.resize(start + N_STATES * nf, 0.0);
            ctx.dma_put(&rows_ldm, &mut out[start..])?;
            ids.push(ri as u32);
            ri += n_cpes;
        }
        Ok((ids, out))
    })?;

    // MPE scatter: assemble per-state blocks.
    let mut states = vec![vec![0f32; tables.n_region * nf]; N_STATES];
    for (ids, rows) in per_cpe {
        for (i, &ri) in ids.iter().enumerate() {
            let ri = ri as usize;
            let block = &rows[i * N_STATES * nf..(i + 1) * N_STATES * nf];
            for (s, state_block) in states.iter_mut().enumerate() {
                state_block[ri * nf..(ri + 1) * nf].copy_from_slice(&block[s * nf..(s + 1) * nf]);
            }
        }
    }
    Ok(StateFeatures {
        n_region: tables.n_region,
        n_features: nf,
        states,
    })
}

/// CPE-parallel delta-state feature computation: like [`features_cpe`] the
/// region sites are distributed circularly and all shared tables live in
/// LDM (including the one-byte-per-site affected mask), but each CPE
/// computes a site's state-0 row plus only the final states whose mask bit
/// is set — the rows [`features_serial_delta`] produces, bit for bit.
pub fn features_cpe_delta(
    cg: &CoreGroup,
    tables: &FeatureOpTables,
    vet: &[Species],
) -> Result<DeltaFeatures, OperatorError> {
    tables.check_vet(vet)?;
    let nf = tables.n_features;
    let vet_bytes: Vec<u8> = vet.iter().map(|&s| s as u8).collect();
    let n_cpes = cg.config().n_cpes;

    // Each CPE returns its site ids plus a flat buffer of variable-length
    // blocks: per site, the state-0 row then the affected-state rows in
    // ascending state order (the mask tells the MPE how to slice).
    let per_cpe: Vec<(Vec<u32>, Vec<f32>)> = cg.run_collect(|ctx| {
        let id = ctx.id();
        let mut vet_ldm = ctx.ldm_alloc::<u8>(tables.n_all)?;
        ctx.dma_get(&vet_bytes, &mut vet_ldm)?;
        let mut table_ldm = ctx.ldm_alloc::<f32>(tables.table.len())?;
        ctx.dma_get(&tables.table, &mut table_ldm)?;
        let mut mask_ldm = ctx.ldm_alloc::<u8>(tables.n_region)?;
        ctx.dma_get(&tables.affected_mask, &mut mask_ldm)?;
        let vet_local: Vec<Species> = vet_ldm
            .iter()
            .map(|&b| Species::from_u8(b).expect("valid species byte"))
            .collect();

        let mut ids = Vec::new();
        let mut out = Vec::new();
        let mut net_site_ldm = ctx.ldm_alloc::<u32>(tables.n_local)?;
        let mut net_shell_ldm = ctx.ldm_alloc::<u8>(tables.n_local)?;
        let mut rows_ldm = ctx.ldm_alloc::<f32>(N_STATES * nf)?;
        let mut ri = id;
        while ri < tables.n_region {
            ctx.dma_get(
                &tables.net_site[ri * tables.n_local..(ri + 1) * tables.n_local],
                &mut net_site_ldm,
            )?;
            ctx.dma_get(
                &tables.net_shell[ri * tables.n_local..(ri + 1) * tables.n_local],
                &mut net_shell_ldm,
            )?;
            let mask = mask_ldm[ri];
            let n_rows = 1 + mask.count_ones() as usize;
            rows_ldm[..n_rows * nf].fill(0.0);
            let mut slot = 0;
            for s in 0..N_STATES {
                if s > 0 && mask & (1 << (s - 1)) == 0 {
                    continue;
                }
                tables.site_features_into(
                    &vet_local,
                    s,
                    ri,
                    &net_site_ldm,
                    &net_shell_ldm,
                    &table_ldm,
                    &mut rows_ldm[slot * nf..(slot + 1) * nf],
                );
                ctx.flops((tables.n_local * tables.n_dim) as u64);
                slot += 1;
            }
            let start = out.len();
            out.resize(start + n_rows * nf, 0.0);
            ctx.dma_put(&rows_ldm[..n_rows * nf], &mut out[start..])?;
            ids.push(ri as u32);
            ri += n_cpes;
        }
        Ok((ids, out))
    })?;

    // MPE scatter into the compact delta layout.
    let mut state0 = vec![0f32; tables.n_region * nf];
    let mut affected: [Vec<f32>; N_FINAL_STATES] = Default::default();
    for (k, block) in affected.iter_mut().enumerate() {
        *block = vec![0f32; tables.affected[k].len() * nf];
    }
    for (ids, rows) in per_cpe {
        let mut offset = 0;
        for &ri in &ids {
            let ri = ri as usize;
            state0[ri * nf..(ri + 1) * nf].copy_from_slice(&rows[offset..offset + nf]);
            offset += nf;
            let mask = tables.affected_mask[ri];
            for k in 1..=N_FINAL_STATES {
                if mask & (1 << (k - 1)) == 0 {
                    continue;
                }
                let j = tables.affected[k - 1]
                    .binary_search(&(ri as u32))
                    .expect("mask bit implies membership in the affected list");
                affected[k - 1][j * nf..(j + 1) * nf].copy_from_slice(&rows[offset..offset + nf]);
                offset += nf;
            }
        }
        debug_assert_eq!(offset, rows.len());
    }
    Ok(DeltaFeatures {
        n_region: tables.n_region,
        n_features: nf,
        state0,
        affected,
    })
}

/// Content-deduplicating packer for NNP kernel input rows.
///
/// Rows are interned by exact bit pattern (`f32::to_bits`, so `-0.0` and
/// `0.0` stay distinct): the first occurrence is appended to the packed
/// buffer, later occurrences return the existing row id. Because the
/// fused kernel computes each input row independently, feeding it the
/// packed buffer and scattering by row id reproduces the dense per-row
/// energies bit for bit. In the dilute Fe–Cu alloy most region sites see
/// identical neighbourhoods, so the packed buffer is typically several
/// times smaller than the `9 × N_region` dense batch — across systems
/// too, when one interner serves a whole batched refresh.
#[derive(Debug, Clone)]
pub struct RowInterner {
    n_features: usize,
    rows: Vec<f32>,
    /// Hash of each interned row, by row id: a probe compares hashes before
    /// row bits, and growth re-seats ids without rehashing row data.
    hashes: Vec<u64>,
    /// Open-addressed table (linear probing, power-of-two length, at most
    /// half full) of row ids; [`EMPTY_SLOT`] marks a free slot.
    slots: Vec<u32>,
    /// Test hook: hash every row to the same value, so every probe walks a
    /// collision chain and only the bit-compare tells rows apart.
    #[cfg(test)]
    collide_all: bool,
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Slots of a fresh interner: 128 distinct rows before the first growth,
/// which covers a paper-deck call (~50 distinct rows) without growing.
const INITIAL_SLOTS: usize = 256;

impl RowInterner {
    /// An empty interner for rows of width `n_features`.
    pub fn new(n_features: usize) -> Self {
        RowInterner {
            n_features,
            rows: Vec::new(),
            hashes: Vec::new(),
            slots: vec![EMPTY_SLOT; INITIAL_SLOTS],
            #[cfg(test)]
            collide_all: false,
        }
    }

    /// Multiply-rotate mix over the row's f32 bit patterns, two per 64-bit
    /// word, folded so the low bits that index the table depend on every
    /// word.
    #[inline]
    fn hash(&self, row: &[f32]) -> u64 {
        #[cfg(test)]
        if self.collide_all {
            return 0;
        }
        const K: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut h = row.len() as u64;
        let mut pairs = row.chunks_exact(2);
        for p in &mut pairs {
            let word = u64::from(p[0].to_bits()) << 32 | u64::from(p[1].to_bits());
            h = (h.rotate_left(5) ^ word).wrapping_mul(K);
        }
        if let [last] = pairs.remainder() {
            h = (h.rotate_left(5) ^ u64::from(last.to_bits())).wrapping_mul(K);
        }
        h ^ (h >> 32)
    }

    #[inline]
    fn bits_equal(a: &[f32], b: &[f32]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Doubles the slot table and re-seats every id from its stored hash.
    /// Ids are all distinct, so no row is compared.
    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        let mut slots = vec![EMPTY_SLOT; mask + 1];
        for (id, &h) in self.hashes.iter().enumerate() {
            let mut i = h as usize & mask;
            while slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            slots[i] = id as u32;
        }
        self.slots = slots;
    }

    /// Interns one row, returning its id in the packed buffer.
    pub fn intern(&mut self, row: &[f32]) -> u32 {
        debug_assert_eq!(row.len(), self.n_features);
        let nf = self.n_features;
        let h = self.hash(row);
        let mask = self.slots.len() - 1;
        let mut i = h as usize & mask;
        loop {
            let id = self.slots[i];
            if id == EMPTY_SLOT {
                break;
            }
            let start = id as usize * nf;
            if self.hashes[id as usize] == h && Self::bits_equal(&self.rows[start..start + nf], row)
            {
                return id;
            }
            i = (i + 1) & mask;
        }
        let id = self.hashes.len() as u32;
        assert!(id != EMPTY_SLOT, "row id space exhausted");
        self.slots[i] = id;
        self.hashes.push(h);
        self.rows.extend_from_slice(row);
        if self.hashes.len() * 2 > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Number of distinct rows interned so far.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// The packed row buffer, row-major `len() × n_features` — the NNP
    /// kernel input.
    pub fn rows(&self) -> &[f32] {
        &self.rows
    }
}

/// One vacancy system's map from dense kernel rows to packed row ids.
///
/// Built by interning the system's [`DeltaFeatures`] rows (state-0 block,
/// then each state's affected rows); [`UniqueRowPlan::scatter`]
/// reconstructs the dense `9 × n_region` per-site energies from the packed
/// kernel output — unaffected sites reuse their state-0 energy f32
/// verbatim, so the reconstruction is bit-identical to a dense evaluation.
#[derive(Debug, Clone)]
pub struct UniqueRowPlan {
    /// Packed row id of each region site's state-0 row.
    pub state0: Vec<u32>,
    /// Per final state `k` (entry `k - 1`): packed row ids of the affected
    /// rows, aligned with `FeatureOpTables::affected[k - 1]`.
    pub affected: [Vec<u32>; N_FINAL_STATES],
}

impl UniqueRowPlan {
    /// Interns every row of `feats` into `interner` (state-0 block first,
    /// then states `1..=8` in order, affected sites ascending) and records
    /// the resulting ids.
    pub fn build(
        tables: &FeatureOpTables,
        feats: &DeltaFeatures,
        interner: &mut RowInterner,
    ) -> Self {
        let state0 = (0..feats.n_region)
            .map(|ri| interner.intern(feats.state0_row(ri)))
            .collect();
        let mut affected: [Vec<u32>; N_FINAL_STATES] = Default::default();
        for k in 1..=N_FINAL_STATES {
            affected[k - 1] = (0..tables.affected_sites(k).len())
                .map(|j| interner.intern(feats.affected_row(k, j)))
                .collect();
        }
        UniqueRowPlan { state0, affected }
    }

    /// Expands packed per-row energies into the dense per-state layout
    /// `out[s * n_region + ri]` expected by the energy reduction.
    pub fn scatter(&self, tables: &FeatureOpTables, energies: &[f32], out: &mut [f32]) {
        let nr = self.state0.len();
        debug_assert_eq!(out.len(), N_STATES * nr);
        for (ri, &id) in self.state0.iter().enumerate() {
            out[ri] = energies[id as usize];
        }
        for k in 1..=N_FINAL_STATES {
            let (head, block) = out.split_at_mut(k * nr);
            block[..nr].copy_from_slice(&head[..nr]);
            for (j, &ri) in tables.affected_sites(k).iter().enumerate() {
                block[ri as usize] = energies[self.affected[k - 1][j] as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorkmc_potential::{FeatureSet, FeatureTable};
    use tensorkmc_sunway::CgConfig;

    fn small_setup() -> (RegionGeometry, FeatureOpTables) {
        // Minimal cutoff: only the 1NN shell (and 2NN), keeps N_region small.
        let geom = RegionGeometry::new(2.87, 3.0).unwrap();
        let table = FeatureTable::new(FeatureSet::small(4), &geom.shells);
        let tables = FeatureOpTables::new(&geom, &table);
        (geom, tables)
    }

    fn test_vet(n_all: usize) -> Vec<Species> {
        let mut vet = vec![Species::Fe; n_all];
        vet[0] = Species::Vacancy;
        // A few Cu atoms at deterministic positions.
        for i in (3..n_all).step_by(7) {
            vet[i] = Species::Cu;
        }
        vet
    }

    #[test]
    fn tables_have_consistent_shapes() {
        let (geom, t) = small_setup();
        assert_eq!(t.n_region, geom.n_region());
        assert_eq!(t.net_site.len(), t.n_region * t.n_local);
        assert_eq!(t.net_shell.len(), t.n_region * t.n_local);
        assert_eq!(t.table.len(), t.n_shells * t.n_dim);
        assert_eq!(t.n_features, 2 * t.n_dim);
    }

    #[test]
    fn state_zero_matches_manual_descriptor() {
        let (geom, t) = small_setup();
        let vet = test_vet(t.n_all);
        let f = features_serial(&t, &vet).unwrap();
        // Recompute site 0 (the vacancy) by hand from the geometry.
        let fs = FeatureSet::small(4);
        let mut manual = vec![0f64; t.n_features];
        for e in &geom.neighbors[0] {
            if let Some(el) = vet[e.site as usize].element_index() {
                let r = geom.shells.shell_distance(e.shell);
                for k in 0..fs.n_dim() {
                    manual[el * fs.n_dim() + k] += fs.value(k, r);
                }
            }
        }
        for (a, &b) in manual.iter().zip(f.row(0, 0)) {
            assert!((a - b as f64).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn swap_semantics_relabel_exactly_two_sites() {
        let (_, t) = small_setup();
        let vet = test_vet(t.n_all);
        let k = 2usize; // final state 2 swaps CET sites 0 and 2
        for site in 0..t.n_all as u32 {
            let s = FeatureOpTables::species_in_state(&vet, k, site);
            let expect = match site as usize {
                0 => vet[k],
                x if x == k => vet[0],
                x => vet[x],
            };
            assert_eq!(s, expect);
        }
    }

    #[test]
    fn vacancy_contributes_nothing() {
        let (_, t) = small_setup();
        let mut vet = test_vet(t.n_all);
        // Fill a second vacancy next to the first: features that counted that
        // site must drop.
        let with = features_serial(&t, &vet).unwrap();
        vet[5] = Species::Vacancy;
        let without = features_serial(&t, &vet).unwrap();
        // Site 5 is a 1NN of site 0 in CET layout; site 0's features change.
        assert_ne!(with.row(0, 0), without.row(0, 0));
    }

    #[test]
    fn cpe_path_matches_serial_exactly() {
        let (_, t) = small_setup();
        let vet = test_vet(t.n_all);
        let serial = features_serial(&t, &vet).unwrap();
        let cg = CoreGroup::new(CgConfig::default());
        let cpe = features_cpe(&cg, &t, &vet).unwrap();
        assert_eq!(serial, cpe);
    }

    #[test]
    fn cpe_path_counts_traffic() {
        let (_, t) = small_setup();
        let vet = test_vet(t.n_all);
        let cg = CoreGroup::new(CgConfig::default());
        cg.reset_traffic();
        let _ = features_cpe(&cg, &t, &vet).unwrap();
        let traffic = cg.traffic();
        assert!(traffic.dma_get_bytes > 0);
        assert!(traffic.dma_put_bytes > 0);
        assert!(traffic.flops > 0);
        // Output DMA: one 9-state block per region site.
        let expect_put = (t.n_region * N_STATES * t.n_features * 4) as u64;
        assert_eq!(traffic.dma_put_bytes, expect_put);
    }

    fn assert_states_bit_equal(a: &StateFeatures, b: &StateFeatures) {
        assert_eq!(a.n_region, b.n_region);
        assert_eq!(a.n_features, b.n_features);
        for s in 0..N_STATES {
            for (i, (x, y)) in a.states[s].iter().zip(&b.states[s]).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "state {s}, flat index {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn affected_index_is_exact() {
        // Membership in affected[k-1] must equal "NET row references site 0
        // or site k", and the mask must mirror the lists.
        let (_, t) = small_setup();
        for k in 1..=N_FINAL_STATES {
            let listed = t.affected_sites(k);
            assert!(listed.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
            for ri in 0..t.n_region {
                let row = &t.net_site[ri * t.n_local..(ri + 1) * t.n_local];
                let touches = row.iter().any(|&s| s == 0 || s == k as u32);
                assert_eq!(
                    listed.contains(&(ri as u32)),
                    touches,
                    "state {k}, region site {ri}"
                );
                assert_eq!(
                    t.affected_mask[ri] & (1 << (k - 1)) != 0,
                    touches,
                    "mask bit {k} of site {ri}"
                );
            }
        }
    }

    #[test]
    fn delta_serial_expands_to_the_dense_features_bit_for_bit() {
        let (_, t) = small_setup();
        let vet = test_vet(t.n_all);
        let dense = features_serial(&t, &vet).unwrap();
        let delta = features_serial_delta(&t, &vet).unwrap();
        assert_states_bit_equal(&dense, &delta.to_dense(&t));
    }

    #[test]
    fn delta_cpe_matches_delta_serial_exactly() {
        let (_, t) = small_setup();
        let vet = test_vet(t.n_all);
        let serial = features_serial_delta(&t, &vet).unwrap();
        let cg = CoreGroup::new(CgConfig::default());
        let cpe = features_cpe_delta(&cg, &t, &vet).unwrap();
        assert_eq!(serial, cpe);
    }

    #[test]
    fn delta_cpe_moves_fewer_output_bytes_than_dense() {
        let (_, t) = small_setup();
        let vet = test_vet(t.n_all);
        let cg = CoreGroup::new(CgConfig::default());
        cg.reset_traffic();
        let _ = features_cpe_delta(&cg, &t, &vet).unwrap();
        let expect_put = (t.packed_rows() * t.n_features * 4) as u64;
        assert_eq!(cg.traffic().dma_put_bytes, expect_put);
        assert!(t.packed_rows() < N_STATES * t.n_region);
    }

    #[test]
    fn interner_dedups_by_bit_pattern() {
        let mut i = RowInterner::new(2);
        assert!(i.is_empty());
        let a = i.intern(&[1.0, 2.0]);
        let b = i.intern(&[1.0, 3.0]);
        assert_ne!(a, b);
        assert_eq!(i.intern(&[1.0, 2.0]), a);
        // -0.0 == 0.0 numerically but differs in bits: must NOT dedup, or
        // the packed kernel input would no longer reproduce dense bits.
        let z = i.intern(&[0.0, 0.0]);
        let nz = i.intern(&[-0.0, 0.0]);
        assert_ne!(z, nz);
        assert_eq!(i.len(), 4);
        assert_eq!(&i.rows()[..2], &[1.0, 2.0]);
    }

    #[test]
    fn interner_tells_rows_apart_when_every_hash_collides() {
        // With one hash for every row the table degenerates to a single
        // probe chain (wrapping past the table end and surviving growth):
        // only the full bit-compare can keep distinct rows apart.
        let mut i = RowInterner::new(3);
        i.collide_all = true;
        let row = |k: u32| [k as f32, -(k as f32), f32::from_bits(0x7fc0_0000 | k)];
        let n = 2 * INITIAL_SLOTS as u32; // two growths
        for k in 0..n {
            assert_eq!(i.intern(&row(k)), k, "first occurrence of row {k}");
        }
        for k in (0..n).rev() {
            assert_eq!(i.intern(&row(k)), k, "repeat of row {k}");
        }
        assert_eq!(i.len(), n as usize);
        assert!(i.slots.len() > INITIAL_SLOTS);
    }

    #[test]
    fn unique_row_plan_scatter_reconstructs_dense_energies() {
        let (_, t) = small_setup();
        let vet = test_vet(t.n_all);
        let delta = features_serial_delta(&t, &vet).unwrap();
        let mut interner = RowInterner::new(t.n_features);
        let plan = UniqueRowPlan::build(&t, &delta, &mut interner);
        assert!(interner.len() <= t.packed_rows());
        // Stand-in "energy" per unique row: its id. Scattering must place
        // each dense row's unique id at its dense position.
        let energies: Vec<f32> = (0..interner.len()).map(|i| i as f32).collect();
        let mut out = vec![f32::NAN; N_STATES * t.n_region];
        plan.scatter(&t, &energies, &mut out);
        let dense = delta.to_dense(&t);
        for s in 0..N_STATES {
            for ri in 0..t.n_region {
                let id = out[s * t.n_region + ri] as usize;
                let got = &interner.rows()[id * t.n_features..(id + 1) * t.n_features];
                assert!(
                    got.iter()
                        .zip(dense.row(s, ri))
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "state {s}, site {ri} scattered the wrong unique row"
                );
            }
        }
    }

    #[test]
    fn paper_geometry_dedup_beats_three_x() {
        // The acceptance floor of the delta path: at the paper geometry a
        // dilute-alloy VET must shrink the kernel batch at least 3×.
        let geom = RegionGeometry::new(2.87, 6.5).unwrap();
        let table = FeatureTable::new(FeatureSet::paper_32(), &geom.shells);
        let t = FeatureOpTables::new(&geom, &table);
        // Dilute Fe–1.34%Cu occupancy, the paper's alloy.
        let mut vet = vec![Species::Fe; t.n_all];
        vet[0] = Species::Vacancy;
        for i in (3..t.n_all).step_by(75) {
            vet[i] = Species::Cu;
        }
        let delta = features_serial_delta(&t, &vet).unwrap();
        let mut interner = RowInterner::new(t.n_features);
        let _ = UniqueRowPlan::build(&t, &delta, &mut interner);
        assert!(
            interner.len() * 3 <= N_STATES * t.n_region,
            "{} unique rows vs {} dense rows",
            interner.len(),
            N_STATES * t.n_region
        );
    }

    #[test]
    fn wrong_vet_length_is_an_error() {
        let (_, t) = small_setup();
        let vet = vec![Species::Fe; t.n_all - 1];
        assert!(matches!(
            features_serial(&t, &vet),
            Err(OperatorError::VetShape { .. })
        ));
    }

    #[test]
    fn paper_geometry_ldm_budget_holds() {
        // With the real N_all = 1181 and 32 components, the per-CPE resident
        // set must fit 256 KiB (otherwise the operator design is invalid).
        let geom = RegionGeometry::new(2.87, 6.5).unwrap();
        let table = FeatureTable::new(FeatureSet::paper_32(), &geom.shells);
        let t = FeatureOpTables::new(&geom, &table);
        let vet = test_vet(t.n_all);
        let cg = CoreGroup::new(CgConfig::default());
        let f = features_cpe(&cg, &t, &vet).unwrap();
        assert_eq!(f.n_region, 253);
        assert_eq!(f.n_features, 64);
    }
}

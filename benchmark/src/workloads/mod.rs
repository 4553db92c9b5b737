//! The five workloads. Each module turns `RunOptions` into an `Outcome`.

use std::path::Path;

use tensorkmc::input::InputDeck;
use tensorkmc::lattice::SiteArray;
use tensorkmc_compat::json::Json;

use crate::ground::Ground;
use crate::report::Outcome;
use crate::spans::Spans;

pub mod aging;
pub mod serve;
pub mod sublattice;

/// FNV-1a over the lattice's species bytes: what "the same final lattice"
/// compares.
fn lattice_digest(lattice: &SiteArray) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &s in lattice.as_slice() {
        h ^= s as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes `deck` to `path` and parses it back, so a run is built from
/// exactly what `tensorkmc -in` would read.
fn write_and_reload_deck(deck: &InputDeck, path: &Path) -> Result<InputDeck, String> {
    let text = deck.to_json().map_err(|e| e.to_string())?;
    std::fs::write(path, &text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let deck = InputDeck::from_json(&text).map_err(|e| format!("bad generated deck: {e}"))?;
    deck.validate()?;
    Ok(deck)
}

/// Ends a traced pass: writes the span document and notes where it went.
fn write_spans(
    ground: &Ground,
    spans: &Spans,
    workload: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let path = spans.write(&ground.work, workload)?;
    out.note("spans_file", Json::Str(path.to_string_lossy().into_owned()));
    out.note("spans", Json::UInt(spans.len() as u64));
    Ok(())
}

//! Persistent tuning results: a `stream-store` namespace keyed by
//! (application, machine configuration, search space), so warm restarts
//! replay winners instead of re-running searches.
//!
//! Rehydrated winners are **re-validated, not trusted**: the caller
//! rebuilds both the default and the winning program and re-simulates
//! them; the stored entry is only honored when both cycle counts still
//! match. Anything else — a changed cost model, simulator, scheduler, or
//! a corrupt payload — falls through to a full search that overwrites the
//! stale entry.

use std::io;
use std::path::Path;
use std::sync::OnceLock;

use stream_machine::Machine;
use stream_store::{DiskStore, Key};

use crate::space::{Candidate, TuneSpace};

/// Bump when the payload layout or its semantics change; stale versions
/// land in a different namespace directory and are simply never read.
/// Version 2 dropped the tape-tier and native-policy bytes from the
/// winner.
const FORMAT_VERSION: u32 = 2;

/// Namespace carries the crate version, like the serve planner's results
/// tier: a rebuilt binary never replays winners tuned by another build.
const NAMESPACE: &str = concat!("tune-", env!("CARGO_PKG_VERSION"));

static DISK: OnceLock<DiskStore> = OnceLock::new();

/// Attaches the process-wide persistent tuning-results tier rooted at
/// `root`. Every search completed after this call is written through, and
/// later processes (or a restarted one) rehydrate validated winners with
/// zero searches. Returns `false` if a tier was already attached (the
/// existing one is kept).
///
/// # Errors
///
/// Propagates the failure to create or open the store directory.
pub fn attach_global_disk(root: &Path) -> io::Result<bool> {
    if DISK.get().is_some() {
        return Ok(false);
    }
    let store = DiskStore::open(root, NAMESPACE, FORMAT_VERSION)?;
    Ok(DISK.set(store).is_ok())
}

/// A decoded stored result, pending re-validation by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StoredTuned {
    pub winner: Candidate,
    pub default_cycles: u64,
    pub tuned_cycles: u64,
}

/// The key material ties a result to everything that could change it:
/// the app, the machine's shape *and* technology fingerprint, the search
/// space (a change to its axes → different key), and the format
/// version. Sections are u32-le length-framed so no field can bleed into
/// its neighbor.
fn key_material(app: &str, machine: &Machine, space: &TuneSpace) -> Vec<u8> {
    let cfg = machine.config();
    let mut blob = Vec::with_capacity(64);
    let section = |bytes: &[u8], out: &mut Vec<u8>| {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    };
    section(b"stream-tune.key", &mut blob);
    section(app.as_bytes(), &mut blob);
    section(&cfg.shape.clusters.to_le_bytes(), &mut blob);
    section(&cfg.shape.alus_per_cluster.to_le_bytes(), &mut blob);
    section(&cfg.params_fingerprint.to_le_bytes(), &mut blob);
    section(&space.fingerprint().to_le_bytes(), &mut blob);
    section(&FORMAT_VERSION.to_le_bytes(), &mut blob);
    blob
}

fn encode(material: &[u8], stored: &StoredTuned) -> Vec<u8> {
    let mut payload = Vec::with_capacity(material.len() + 64);
    payload.extend_from_slice(&(material.len() as u32).to_le_bytes());
    payload.extend_from_slice(material);
    stored.winner.encode(&mut payload);
    payload.extend_from_slice(&stored.default_cycles.to_le_bytes());
    payload.extend_from_slice(&stored.tuned_cycles.to_le_bytes());
    payload
}

/// `None` on any structural mismatch — truncation, trailing garbage,
/// embedded key material that differs from what we looked up (a hash
/// collision or cross-namespace mixup), or a winner outside `space`;
/// corrupt entries read as misses.
fn decode(payload: &[u8], material: &[u8], space: &TuneSpace) -> Option<StoredTuned> {
    let len = u32::from_le_bytes(payload.get(..4)?.try_into().ok()?) as usize;
    let mut at = 4usize;
    if payload.get(at..at + len)? != material {
        return None;
    }
    at += len;
    let (winner, used) = Candidate::decode(payload.get(at..)?)?;
    if !space.contains(&winner) {
        return None;
    }
    at += used;
    let default_cycles = u64::from_le_bytes(payload.get(at..at + 8)?.try_into().ok()?);
    at += 8;
    let tuned_cycles = u64::from_le_bytes(payload.get(at..at + 8)?.try_into().ok()?);
    at += 8;
    if at != payload.len() {
        return None;
    }
    Some(StoredTuned {
        winner,
        default_cycles,
        tuned_cycles,
    })
}

/// Loads the stored result for `(app, machine, space)`, if a disk tier is
/// attached and holds a structurally valid entry. The caller still
/// re-validates cycle counts before honoring it.
pub(crate) fn load(app: &str, machine: &Machine, space: &TuneSpace) -> Option<StoredTuned> {
    let disk = DISK.get()?;
    let material = key_material(app, machine, space);
    let payload = disk.get(Key::of(&material))?;
    decode(&payload, &material, space)
}

/// Writes `stored` through to the disk tier, if one is attached. Write
/// failures are swallowed: persistence is an accelerator, never a
/// correctness dependency.
pub(crate) fn save(app: &str, machine: &Machine, space: &TuneSpace, stored: &StoredTuned) {
    if let Some(disk) = DISK.get() {
        let material = key_material(app, machine, space);
        let _ = disk.put(Key::of(&material), &encode(&material, stored));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stream_apps::AppId;
    use stream_machine::SystemParams;
    use stream_sim::simulate;

    fn sample() -> StoredTuned {
        StoredTuned {
            winner: Candidate {
                unroll_factors: vec![1, 2, 4],
                strip_scale: 2,
            },
            default_cycles: 123_456,
            tuned_cycles: 98_765,
        }
    }

    #[test]
    fn payload_roundtrips() {
        let m = Machine::baseline();
        let space = TuneSpace::default();
        let material = key_material("CONV", &m, &space);
        let stored = sample();
        let payload = encode(&material, &stored);
        assert_eq!(decode(&payload, &material, &space), Some(stored));
    }

    #[test]
    fn truncated_or_padded_payloads_are_misses() {
        let m = Machine::baseline();
        let space = TuneSpace::default();
        let material = key_material("CONV", &m, &space);
        let payload = encode(&material, &sample());
        for cut in [0, 1, payload.len() / 2, payload.len() - 1] {
            assert_eq!(
                decode(&payload[..cut], &material, &space),
                None,
                "cut at {cut}"
            );
        }
        let mut padded = payload.clone();
        padded.push(0);
        assert_eq!(decode(&padded, &material, &space), None);
    }

    #[test]
    fn winners_outside_the_space_are_misses() {
        let space = TuneSpace::default();
        let material = key_material("CONV", &Machine::baseline(), &space);
        let mut stored = sample();
        stored.winner.strip_scale = 3;
        assert_eq!(decode(&encode(&material, &stored), &material, &space), None);
    }

    #[test]
    fn key_material_separates_machines_spaces_and_apps() {
        let space = TuneSpace::default();
        let base = key_material("CONV", &Machine::baseline(), &space);
        let big = Machine::paper(stream_vlsi::Shape::new(64, 8));
        assert_ne!(base, key_material("CONV", &big, &space));
        assert_ne!(base, key_material("QRD", &Machine::baseline(), &space));
        let narrowed = TuneSpace {
            strip_scales: vec![1],
            ..TuneSpace::default()
        };
        assert_ne!(base, key_material("CONV", &Machine::baseline(), &narrowed));
    }

    /// A record as version 1 wrote it: version-1 key material, and a
    /// winner followed by its tape-tier and native-policy bytes.
    fn version1_payload(material_v1: &[u8], stored: &StoredTuned) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&(material_v1.len() as u32).to_le_bytes());
        payload.extend_from_slice(material_v1);
        stored.winner.encode(&mut payload);
        payload.extend_from_slice(&[1, 1]); // tape=v2-batch, native=auto
        payload.extend_from_slice(&stored.default_cycles.to_le_bytes());
        payload.extend_from_slice(&stored.tuned_cycles.to_le_bytes());
        payload
    }

    #[test]
    fn version1_records_are_misses() {
        let m = Machine::baseline();
        let space = TuneSpace::default();
        let material = key_material("CONV", &m, &space);
        let mut material_v1 = material.clone();
        let v = material_v1.len() - 4;
        material_v1[v..].copy_from_slice(&1u32.to_le_bytes());
        assert_ne!(material_v1, material);
        let stored = sample();
        assert_eq!(
            decode(&version1_payload(&material_v1, &stored), &material, &space),
            None
        );
        // Even under today's key material the old winner layout is a miss.
        assert_eq!(
            decode(&version1_payload(&material, &stored), &material, &space),
            None
        );
    }

    /// The genuine record for CONV on the baseline machine, its key
    /// material, and its encoding; searched once per test process.
    fn conv_record() -> &'static (TuneSpace, Vec<u8>, Vec<u8>) {
        static RECORD: OnceLock<(TuneSpace, Vec<u8>, Vec<u8>)> = OnceLock::new();
        RECORD.get_or_init(|| {
            let m = Machine::baseline();
            let t = crate::tune_app(AppId::Conv, &m, &SystemParams::paper_2007());
            let space = TuneSpace::default();
            let material = key_material(AppId::Conv.name(), &m, &space);
            let stored = StoredTuned {
                winner: t.candidate,
                default_cycles: t.default_cycles,
                tuned_cycles: t.tuned_cycles,
            };
            let payload = encode(&material, &stored);
            (space, material, payload)
        })
    }

    /// Decodes a mutated CONV record: a miss is always fine; a decoded
    /// record must lie in the space, and revalidation must accept it
    /// exactly when its cycle claims reproduce.
    fn check_mutant(space: &TuneSpace, material: &[u8], mutant: &[u8]) -> Result<(), String> {
        let Some(rec) = decode(mutant, material, space) else {
            return Ok(());
        };
        if !space.contains(&rec.winner) {
            return Err(format!("decoded winner outside the space: {rec:?}"));
        }
        let m = Machine::baseline();
        let sys = SystemParams::paper_2007();
        let (_, default_cycles) = crate::default_report(AppId::Conv, &m, &sys).unwrap();
        let app =
            AppId::Conv.program_with(&m, &rec.winner.compile_options(), rec.winner.strip_scale);
        let winner_cycles = simulate(&app.program, &m, &sys).ok().map(|r| r.cycles);
        let honest =
            rec.default_cycles == default_cycles && winner_cycles == Some(rec.tuned_cycles);
        if crate::revalidate(AppId::Conv, &m, &sys, &rec) != honest {
            return Err(format!("revalidation disagrees with the facts on {rec:?}"));
        }
        Ok(())
    }

    #[test]
    fn every_bit_flip_and_truncation_is_a_miss_or_revalidated() {
        let (space, material, payload) = conv_record();
        for bit in 0..payload.len() * 8 {
            let mut mutant = payload.clone();
            mutant[bit / 8] ^= 1 << (bit % 8);
            check_mutant(space, material, &mutant).unwrap_or_else(|e| panic!("bit {bit}: {e}"));
        }
        for cut in 0..payload.len() {
            assert_eq!(
                decode(&payload[..cut], material, space),
                None,
                "cut at {cut}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random hostile edits of a genuine tune record — a byte
        /// overwritten, the tail cut, or bytes appended — never panic the
        /// decoder: each is a miss, or a record that is only used after
        /// revalidation agrees with a fresh simulation.
        #[test]
        fn mutated_tune_records_are_misses_or_revalidated(
            kind in 0u8..3,
            at in any::<u32>(),
            byte in any::<u8>(),
            tail in proptest::collection::vec(any::<u8>(), 1..16),
        ) {
            let (space, material, payload) = conv_record();
            let at = at as usize % payload.len();
            let mutant = match kind {
                0 => {
                    let mut m = payload.clone();
                    m[at] = byte;
                    m
                }
                1 => payload[..at].to_vec(),
                _ => [payload.as_slice(), tail.as_slice()].concat(),
            };
            if kind == 2 {
                prop_assert!(decode(&mutant, material, space).is_none());
            }
            let outcome = check_mutant(space, material, &mutant);
            prop_assert!(outcome.is_ok(), "{:?}", outcome);
        }
    }
}

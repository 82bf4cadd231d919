//! `cold-16k`: repeated cold `asrank infer` runs over one RIB, each into
//! a fresh cache directory — the batch path users run on every new RIB.
//! MRT decode, the sixteen engine stages and the frame writes do nearly
//! all their work here.

use crate::infer::{infer_rib, Inferred};
use crate::scenario::{build_inputs, fresh_dir, Inputs, Workload};
use crate::{ppv, set_up, Measured, Run};
use std::path::Path;
use std::time::Instant;

/// The as-rel output of every op must equal op 1's, byte for byte.
pub fn same_output(first: &[u8], this: &[u8]) -> bool {
    first == this
}

/// One timed op into `dir/op` (cleared first, untimed).
fn op(inputs: &Inputs, dir: &Path) -> Result<(f64, Inferred), String> {
    let cache = dir.join("op").join("cache");
    fresh_dir(&cache)?;
    let out = dir.join("op").join("as-rel.txt");
    let t = Instant::now();
    let inferred = infer_rib(inputs, &cache, Some(&out))?;
    Ok((t.elapsed().as_secs_f64(), inferred))
}

/// Run the workload.
pub fn run(run: &Run, dir: &Path) -> Result<Measured, String> {
    let (inputs, setup_s) = set_up(|| build_inputs(Workload::Cold.tier(), run.seed, dir))?;
    let mut m = Measured::new(setup_s);
    m.samples = inputs.samples;
    let mut first: Option<Vec<u8>> = None;
    let mut last = None;
    let mut measured = 0.0f64;
    let mut i = 0usize;
    while run.more_ops(i, measured) {
        let traced = run.trace_op(i);
        m.attempted += 1;
        let result = op(&inputs, dir);
        crate::trace::set_enabled(false);
        match result {
            Ok((secs, inferred)) => {
                measured += secs;
                m.record_op(secs, inputs.samples as f64, traced);
                // Untimed checks: the output bytes, and accuracy once.
                let bytes = std::fs::read(dir.join("op").join("as-rel.txt")).unwrap_or_default();
                match &first {
                    None => {
                        m.ppv = ppv(&inferred.inference().relationships, &inputs.truth);
                        first = Some(bytes);
                    }
                    Some(want) if !same_output(want, &bytes) => m.fail("as-rel differs from op 1"),
                    Some(_) => {}
                }
                last = Some(inferred);
            }
            Err(e) => {
                m.fail(&e);
                break;
            }
        }
        i += 1;
    }
    m.peak_rss_kib = crate::rss_child(run, dir)?;
    if run.trace {
        let last = last.ok_or("no op succeeded")?;
        let cache = dir.join("op").join("cache");
        crate::layers::pass(run, &inputs, dir, Some((&last, &cache)))?;
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_check_fires_on_a_tampered_byte() {
        let first = b"# as-rel\n1|2|-1\n3|4|0\n".to_vec();
        assert!(same_output(&first, &first.clone()));
        let mut tampered = first.clone();
        tampered[10] ^= 1;
        assert!(!same_output(&first, &tampered));
        assert!(!same_output(&first, &first[..first.len() - 1]));
    }
}

//! Profile persistence: save and reload a machine calibration.
//!
//! Bandwidth measurement and kernel profiling take seconds to minutes;
//! they depend only on the machine and the precision, not on the matrix.
//! This module stores a calibration as a small, versioned, line-oriented
//! text file so repeated harness runs (and the `spmv-tune` CLI) can skip
//! recalibration.
//!
//! Format (one record per line, whitespace-separated; `#` comments and
//! blank lines are ignored):
//!
//! ```text
//! blocked-spmv-profile v1
//! machine <bandwidth> <l1_bytes> <llc_bytes>
//! <kernel record> <t_b> <nof>
//! ```
//!
//! A kernel record is [`KernelKey::record`], e.g. `csr`, `bcsr 2 3 simd`
//! or `sell 4 scalar`. A file must hold exactly one record for every key
//! of [`Config::profiled_kernels`], the search space's kernels, and no
//! other.

use crate::config::{Config, KernelKey};
use crate::machine::MachineProfile;
use crate::profile::{BlockTimes, KernelProfile};
use spmv_core::{Error, Result};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::path::Path;

const MAGIC: &str = "blocked-spmv-profile v1";

/// Serializes a calibration to any writer.
pub fn write_profile<W: Write>(
    machine: &MachineProfile,
    profile: &KernelProfile,
    mut w: W,
) -> std::io::Result<()> {
    writeln!(w, "{MAGIC}")?;
    writeln!(
        w,
        "machine {:e} {} {}",
        machine.bandwidth, machine.l1_bytes, machine.llc_bytes
    )?;
    // Deterministic order for reproducible files.
    let mut entries: Vec<(&KernelKey, &BlockTimes)> = profile.iter().collect();
    entries.sort_by_key(|(k, _)| **k);
    for (key, times) in entries {
        writeln!(w, "{} {:e} {:e}", key.record(), times.t_b, times.nof)?;
    }
    w.flush()
}

/// Saves a calibration to a file.
pub fn save_profile(
    machine: &MachineProfile,
    profile: &KernelProfile,
    path: impl AsRef<Path>,
) -> std::io::Result<()> {
    write_profile(machine, profile, std::fs::File::create(path)?)
}

/// Deserializes a calibration from any buffered reader.
///
/// Rejects unknown and duplicate records, and a file that misses any
/// kernel of the search space (the error names the first missing one).
pub fn read_profile<R: BufRead>(r: R) -> Result<(MachineProfile, KernelProfile)> {
    let bad = |line: usize, msg: &str| Error::InvalidStructure(format!("line {line}: {msg}"));
    let mut lines = r.lines().enumerate();

    let (_, first) = lines
        .next()
        .ok_or_else(|| bad(1, "empty profile file"))?;
    let first = first.map_err(|e| bad(1, &e.to_string()))?;
    if first.trim() != MAGIC {
        return Err(bad(1, "missing profile header"));
    }

    let keys: Vec<KernelKey> = Config::profiled_kernels().into_keys().collect();
    let by_record: HashMap<String, KernelKey> = keys.iter().map(|&k| (k.record(), k)).collect();
    let mut machine: Option<MachineProfile> = None;
    let mut profile = KernelProfile::default();
    let mut seen: HashMap<KernelKey, usize> = HashMap::new();
    for (idx, line) in lines {
        let lineno = idx + 1;
        let line = line.map_err(|e| bad(lineno, &e.to_string()))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let tok: Vec<&str> = t.split_whitespace().collect();
        let parse_f64 = |s: &str| -> Result<f64> {
            s.parse().map_err(|_| bad(lineno, "bad float"))
        };
        if tok[0] == "machine" && tok.len() == 4 {
            if machine.is_some() {
                return Err(bad(lineno, "duplicate machine record"));
            }
            machine = Some(MachineProfile {
                bandwidth: parse_f64(tok[1])?,
                l1_bytes: tok[2].parse().map_err(|_| bad(lineno, "bad l1"))?,
                llc_bytes: tok[3].parse().map_err(|_| bad(lineno, "bad llc"))?,
            });
            continue;
        }
        let record = tok[..tok.len().saturating_sub(2)].join(" ");
        let key = *by_record
            .get(&record)
            .ok_or_else(|| bad(lineno, &format!("unknown record `{t}`")))?;
        if let Some(prev) = seen.insert(key, lineno) {
            return Err(bad(
                lineno,
                &format!("duplicate record `{record}` (first on line {prev})"),
            ));
        }
        let n = tok.len();
        let times = BlockTimes {
            t_b: parse_f64(tok[n - 2])?,
            nof: parse_f64(tok[n - 1])?,
        };
        profile.set(key, times);
    }
    let machine = machine.ok_or_else(|| bad(0, "missing machine record"))?;
    if let Some(key) = keys.iter().find(|k| !seen.contains_key(k)) {
        return Err(Error::InvalidStructure(format!(
            "profile has no `{}` record (kernel {key})",
            key.record()
        )));
    }
    Ok((machine, profile))
}

/// Loads a calibration from a file.
pub fn load_profile(path: impl AsRef<Path>) -> Result<(MachineProfile, KernelProfile)> {
    let f = std::fs::File::open(&path)
        .map_err(|e| Error::InvalidStructure(format!("cannot open profile: {e}")))?;
    read_profile(std::io::BufReader::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (MachineProfile, KernelProfile) {
        (
            MachineProfile::paper_testbed(),
            KernelProfile::proportional(1.5e-9, 0.42),
        )
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (machine, profile) = sample();
        let mut buf = Vec::new();
        write_profile(&machine, &profile, &mut buf).unwrap();
        let (m2, p2) = read_profile(&buf[..]).unwrap();
        assert_eq!(machine, m2);
        assert_eq!(p2.len(), profile.len());
        for (key, times) in profile.iter() {
            let got = p2.get(*key);
            assert!((got.t_b - times.t_b).abs() < 1e-18, "{key}");
            assert!((got.nof - times.nof).abs() < 1e-12, "{key}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let (machine, profile) = sample();
        let dir = std::env::temp_dir().join("spmv_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("calib.txt");
        save_profile(&machine, &profile, &path).unwrap();
        let (m2, p2) = load_profile(&path).unwrap();
        assert_eq!(machine, m2);
        assert_eq!(p2.len(), profile.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_profile("not a profile\n".as_bytes()).is_err());
        let bad_record = format!("{MAGIC}\nmachine 1e9 1 2\nwat 1 2 3\n");
        assert!(read_profile(bad_record.as_bytes()).is_err());
        let no_machine = format!("{MAGIC}\ncsr 1e-9 0.5\n");
        assert!(read_profile(no_machine.as_bytes()).is_err());
        let bad_shape = format!("{MAGIC}\nmachine 1e9 1 2\nbcsr 9 9 scalar 1e-9 0.5\n");
        assert!(read_profile(bad_shape.as_bytes()).is_err());
        let bad_sell = format!("{MAGIC}\nmachine 1e9 1 2\nsell 3 scalar 1e-9 0.5\n");
        assert!(read_profile(bad_sell.as_bytes()).is_err());
    }

    /// A complete written profile with `edit` applied to its text.
    fn edited(edit: impl FnOnce(String) -> String) -> Result<(MachineProfile, KernelProfile)> {
        let (machine, profile) = sample();
        let mut buf = Vec::new();
        write_profile(&machine, &profile, &mut buf).unwrap();
        read_profile(edit(String::from_utf8(buf).unwrap()).as_bytes())
    }

    fn err_text(r: Result<(MachineProfile, KernelProfile)>) -> String {
        r.expect_err("profile must be rejected").to_string()
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let (m, p) = edited(|text| {
            let text = text.replacen('\n', "\n# comment\n\n", 1);
            text.replace("\ncsr ", "\n   \n# another comment\ncsr ")
        })
        .unwrap();
        assert_eq!(m, MachineProfile::paper_testbed());
        assert_eq!(p.get(KernelKey::Csr).nof, 0.42);
    }

    #[test]
    fn incomplete_profile_names_the_first_missing_key() {
        let only_csr = format!("{MAGIC}\nmachine 2e9 32768 4194304\ncsr 1e-9 0.25\n");
        let err = err_text(read_profile(only_csr.as_bytes()));
        assert!(err.contains("`bcsr 1 2 scalar`"), "{err}");
        let err = err_text(edited(|text| {
            text.lines()
                .filter(|l| !l.starts_with("sell 8 simd "))
                .map(|l| format!("{l}\n"))
                .collect()
        }));
        assert!(err.contains("`sell 8 simd`"), "{err}");
    }

    #[test]
    fn duplicate_records_are_rejected_by_line() {
        let err = err_text(edited(|text| text + "csr 1e-9 0.5\n"));
        assert!(
            err.contains("duplicate record `csr` (first on line 3)"),
            "{err}"
        );
        let err = err_text(edited(|text| text + "machine 1e9 1 2\n"));
        assert!(err.contains("duplicate machine record"), "{err}");
    }

    #[test]
    fn keys_outside_the_search_space_are_rejected() {
        for record in ["bcsd 1 scalar", "bcsr 1 1 simd", "sell 16 scalar"] {
            let err = err_text(edited(|text| format!("{text}{record} 1e-9 0.5\n")));
            assert!(err.contains("unknown record"), "{record}: {err}");
        }
    }

    #[test]
    fn every_record_token_parses_back_to_its_key() {
        let keys: Vec<KernelKey> = Config::profiled_kernels().into_keys().collect();
        let mut text = format!("{MAGIC}\nmachine 1e9 1 2\n");
        for (i, key) in keys.iter().enumerate() {
            text += &format!("{} {i} 0.5\n", key.record());
        }
        let (_, p) = read_profile(text.as_bytes()).unwrap();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(p.get(*key).t_b, i as f64, "{key}");
        }
    }

    #[test]
    fn saved_host_profile_rewrites_byte_identically() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../perfbench/host.profile");
        let text = std::fs::read_to_string(path).unwrap();
        let (machine, profile) = read_profile(text.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_profile(&machine, &profile, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), text);
    }
}

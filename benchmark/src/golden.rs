//! Golden outputs under `benchmark/golden/`, compared byte for byte.
//!
//! Layout: `<instance>/severity.txt` (seed 1000 only),
//! `<instance>/<mode>.table` for each noise-free mode (every seed), and
//! `MiniFE-1/observe.jsonl` (the observed workload at seed 1000). `run
//! --bless` writes them from the current run instead of comparing.

use std::path::{Path, PathBuf};

/// The seed the seed-dependent goldens were blessed at.
pub const GOLDEN_SEED: u64 = 1000;

/// A directory of golden files.
pub struct Goldens {
    root: PathBuf,
    bless: bool,
}

impl Goldens {
    /// The goldens committed beside this crate.
    pub fn committed(bless: bool) -> Goldens {
        Goldens { root: Path::new(env!("CARGO_MANIFEST_DIR")).join("golden"), bless }
    }

    /// Compare `actual` with the golden `rel`, or write it when blessing.
    /// `Err` names the first differing line.
    pub fn check(&self, rel: &str, actual: &[u8]) -> Result<(), String> {
        let path = self.root.join(rel);
        if self.bless {
            let write = || {
                std::fs::create_dir_all(path.parent().expect("golden paths have a parent"))?;
                std::fs::write(&path, actual)
            };
            return write().map_err(|e| format!("cannot bless {}: {e}", path.display()));
        }
        let expected =
            std::fs::read(&path).map_err(|e| format!("golden {}: {e}", path.display()))?;
        if expected == actual {
            return Ok(());
        }
        let line = expected
            .split(|&b| b == b'\n')
            .zip(actual.split(|&b| b == b'\n'))
            .position(|(e, a)| e != a)
            .map_or_else(|| "length".to_owned(), |i| format!("line {}", i + 1));
        Err(format!("golden {rel} differs at {line}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_goldens_match_themselves() {
        let g = Goldens::committed(false);
        for rel in ["MiniFE-2/lt_1.table", "LULESH-2/severity.txt"] {
            let bytes = std::fs::read(g.root.join(rel)).unwrap();
            assert_eq!(g.check(rel, &bytes), Ok(()), "{rel}");
        }
    }

    #[test]
    fn one_byte_change_fails() {
        let g = Goldens::committed(false);
        let rel = "MiniFE-2/lt_stmt.table";
        let mut bytes = std::fs::read(g.root.join(rel)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        let err = g.check(rel, &bytes).unwrap_err();
        assert!(err.contains("differs at line"), "{err}");
        bytes[mid] ^= 1;
        bytes.push(b'\n');
        assert_eq!(g.check(rel, &bytes).unwrap_err(), format!("golden {rel} differs at length"));
    }

    #[test]
    fn missing_golden_fails() {
        assert!(Goldens::committed(false).check("nope/none.table", b"").is_err());
    }
}

//! Crash-consistent file output: write to a temporary sibling, rename
//! into place.
//!
//! Every artifact the CLIs persist — JSON reports, CSV tables, NDJSON
//! traces, cell-cache files, server metric snapshots — is consumed by
//! downstream tooling that parses it wholesale (`cmp` in CI, the cache
//! loader, the snapshot restorer). A process killed mid-`write` must
//! therefore never leave a torn file under the final name: the torn
//! bytes would half-parse instead of cleanly missing. [`write_atomic`]
//! gives every call site the same discipline the ft-exp cell cache
//! pioneered: the content lands under a `.tmp`-suffixed sibling first
//! and is renamed over the destination, which is atomic on POSIX
//! filesystems (the destination either holds the old content or the
//! complete new content, never a prefix).

use std::ffi::OsString;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;

/// Writes `contents` to `path` via a temporary sibling + rename, so an
/// interrupted writer can never leave a partial file at `path`.
pub fn write_atomic(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> io::Result<()> {
    write_atomic_with(path, |f| f.write_all(contents.as_ref()))
}

/// Streams `path`'s new content through `write` into a temporary
/// sibling, then renames it into place; returns what `write` returned.
///
/// The sibling lives in the same directory (renames across filesystems
/// are not atomic) and carries a `.tmp` suffix appended to the full
/// file name, so distinct targets in one directory never collide. If
/// `write` or the rename fails, the sibling is removed best-effort and
/// `path` is left as it was.
pub fn write_atomic_with<T>(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut File) -> io::Result<T>,
) -> io::Result<T> {
    let path = path.as_ref();
    let mut tmp_name = OsString::from(path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("no file name in {}", path.display()),
        )
    })?);
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let mut file = File::create(&tmp)?;
    write(&mut file)
        .and_then(|value| {
            drop(file);
            std::fs::rename(&tmp, path)?;
            Ok(value)
        })
        .inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
}

/// FNV-1a 64 over raw bytes: the checksum in the trailing `ok` line of
/// the checksummed text formats (ftexp cell cache, ftserve snapshot)
/// and the ftexp cell content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Appends the `ok <fnv1a hex>` trailer line that checksums every
/// preceding byte of `body` — the last line of the checksummed text
/// formats. [`unseal`] is its inverse.
pub fn seal(mut body: String) -> String {
    let sum = fnv1a(body.as_bytes());
    body.push_str(&format!("ok {sum:016x}\n"));
    body
}

/// Verifies and strips the trailer [`seal`] appended, returning the
/// body (its own trailing newline kept). `None` if the trailer is
/// missing or malformed, or any byte of the body was torn or flipped —
/// checked before a caller parses a single field.
pub fn unseal(text: &str) -> Option<&str> {
    let trimmed = text.strip_suffix('\n')?;
    let nl = trimmed.rfind('\n')?;
    let (body, ok_line) = trimmed.split_at(nl + 1);
    let want = u64::from_str_radix(ok_line.strip_prefix("ok ")?, 16).ok()?;
    (fnv1a(body.as_bytes()) == want).then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ft_obs_atomicio_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_content_and_removes_sibling() {
        let dir = scratch_dir("basic");
        let path = dir.join("report.json");
        write_atomic(&path, "{\"ok\": true}\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"ok\": true}\n");
        assert!(
            !dir.join("report.json.tmp").exists(),
            "temporary sibling must not survive"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replaces_existing_file_wholesale() {
        let dir = scratch_dir("replace");
        let path = dir.join("table.csv");
        write_atomic(&path, "old").unwrap();
        write_atomic(&path, "new content, longer").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "new content, longer"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_writes_land_whole_or_not_at_all() {
        let dir = scratch_dir("stream");
        let path = dir.join("trace.ndjson");
        let lines = write_atomic_with(&path, |f| {
            for i in 0..3 {
                writeln!(f, "{{\"i\":{i}}}")?;
            }
            Ok(3)
        })
        .unwrap();
        assert_eq!(lines, 3);
        let whole = "{\"i\":0}\n{\"i\":1}\n{\"i\":2}\n";
        assert_eq!(std::fs::read_to_string(&path).unwrap(), whole);
        // a writer that fails midway leaves the old file and no sibling
        let err = write_atomic_with(&path, |f| {
            f.write_all(b"torn")?;
            Err::<(), _>(io::Error::other("disk full"))
        });
        assert!(err.is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), whole);
        assert!(!dir.join("trace.ndjson.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_parent_directory_errors_without_torn_target() {
        let dir = scratch_dir("noparent");
        let path = dir.join("absent").join("out.json");
        assert!(write_atomic(&path, "x").is_err());
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

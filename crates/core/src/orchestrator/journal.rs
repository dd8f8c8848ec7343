//! Checkpointed resume: the append-only JSONL run journal.
//!
//! Format: one JSON object per line. The first line is a
//! [`JournalHeader`] binding the file to a specific manifest (FNV
//! fingerprint + expected run count); every following line is one
//! [`RunRecord`]. Records are appended a chunk at a time and `fsync`'d per
//! chunk, so after a kill the journal holds every *completed* chunk plus at
//! most one torn line, which [`replay_journal`] detects and discards.
//! Resume truncates the file back to its last complete line and appends
//! from there — the journal never holds two records for one run.
//!
//! Everything in a record is an integer (the one float travels as IEEE
//! bits), so replaying a record is bit-exact: a resumed sweep's aggregates
//! equal a cold sweep's byte-for-byte.

use super::accum::RunRecord;
use crate::sweep::SweepError;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::Path;

/// Journal file magic.
const MAGIC: &str = "vdtn-sweep";
/// Journal format version. Version 2 fingerprints the manifest with the
/// house FNV-1a (`fnv1a_64`); version 1 multiplied by a mistyped prime, so
/// its fingerprints cannot match and its journals are refused by version.
const VERSION: u32 = 2;

/// First line of every journal: which experiment this file belongs to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// File magic, always `"vdtn-sweep"`.
    pub journal: String,
    /// Format version.
    pub version: u32,
    /// FNV fingerprint of the manifest that produced the journal
    /// ([`crate::orchestrator::SweepManifest::fingerprint`]).
    pub manifest_fnv: u64,
    /// Total runs the expanded plan holds (not how many are journalled).
    pub runs: u64,
}

/// The readable content of a journal: its header, every complete record in
/// append order, and the byte length of the complete prefix (everything
/// past it is a torn tail from a kill mid-write).
#[derive(Debug)]
pub struct JournalReplay {
    /// Parsed header line.
    pub header: JournalHeader,
    /// Complete records, in append order.
    pub records: Vec<RunRecord>,
    /// Bytes of the valid prefix; resume truncates the file to this.
    pub valid_bytes: u64,
}

/// Read a journal, keeping every complete record and measuring the valid
/// prefix. A torn or malformed tail line is discarded (that is the normal
/// kill signature); a bad header is an error.
pub fn replay_journal(path: &Path) -> Result<JournalReplay, SweepError> {
    let file = File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut line = String::new();
    let mut offset: u64 = 0;

    let n = reader.read_line(&mut line)?;
    if n == 0 || !line.ends_with('\n') {
        return Err(SweepError::Journal {
            detail: "missing or torn header line".into(),
        });
    }
    let header: JournalHeader =
        serde_json::from_str(line.trim_end()).map_err(|e| SweepError::Journal {
            detail: format!("unparseable header: {e}"),
        })?;
    if header.journal != MAGIC {
        return Err(SweepError::Journal {
            detail: format!("bad magic `{}`", header.journal),
        });
    }
    if header.version != VERSION {
        return Err(SweepError::Journal {
            detail: format!("unsupported version {}", header.version),
        });
    }
    offset += n as u64;

    let mut records = Vec::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            break;
        }
        if !line.ends_with('\n') {
            break; // torn tail: the write was cut mid-line
        }
        match serde_json::from_str::<RunRecord>(line.trim_end()) {
            Ok(rec) => {
                offset += n as u64;
                records.push(rec);
            }
            Err(_) => break, // malformed tail: stop at the valid prefix
        }
    }
    Ok(JournalReplay {
        header,
        records,
        valid_bytes: offset,
    })
}

/// Appending side of the journal. One instance per sweep; the executor
/// serialises access behind a mutex and calls [`JournalWriter::append_chunk`]
/// once per completed chunk.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Create (truncate) a journal and write + fsync its header.
    pub fn create(path: &Path, manifest_fnv: u64, runs: u64) -> Result<Self, SweepError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let header = JournalHeader {
            journal: MAGIC.to_string(),
            version: VERSION,
            manifest_fnv,
            runs,
        };
        let line = serde_json::to_string(&header).expect("header serialises");
        file.write_all(line.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        Ok(JournalWriter { file })
    }

    /// Reopen an existing journal for resume: truncate away any torn tail
    /// (`valid_bytes` from [`replay_journal`]) and position at the end.
    pub fn resume(path: &Path, valid_bytes: u64) -> Result<Self, SweepError> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_bytes)?;
        file.seek(SeekFrom::End(0))?;
        Ok(JournalWriter { file })
    }

    /// Append one chunk's records and fsync — the checkpoint boundary.
    pub fn append_chunk(&mut self, records: &[RunRecord]) -> Result<(), SweepError> {
        let mut buf = String::new();
        for rec in records {
            buf.push_str(&serde_json::to_string(rec).expect("records serialise"));
            buf.push('\n');
        }
        self.file.write_all(buf.as_bytes())?;
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u64) -> RunRecord {
        RunRecord {
            id: format!("run-{i}"),
            created: 100 + i,
            delivered: 50,
            relayed: 80,
            transfers_started: 90,
            transfers_aborted: 5,
            dropped: 20,
            bytes_transferred: 1_000_000,
            contacts: 40,
            delay_mean_bits: (600.0f64 + i as f64).to_bits(),
            delay_count: 50,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("vdtn-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trip_and_resume_after_torn_tail() {
        let path = tmp("torn.jsonl");
        let mut w = JournalWriter::create(&path, 0xDEAD_BEEF, 4).unwrap();
        w.append_chunk(&[record(0), record(1)]).unwrap();
        drop(w);

        // Simulate a kill mid-write: append half a record line.
        let full = serde_json::to_string(&record(2)).unwrap();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(full.as_bytes()[..full.len() / 2].as_ref())
            .unwrap();
        drop(f);

        let replay = replay_journal(&path).unwrap();
        assert_eq!(replay.header.manifest_fnv, 0xDEAD_BEEF);
        assert_eq!(replay.header.runs, 4);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1], record(1));

        // Resume truncates the torn tail and appends cleanly.
        let mut w = JournalWriter::resume(&path, replay.valid_bytes).unwrap();
        w.append_chunk(&[record(2), record(3)]).unwrap();
        drop(w);
        let replay = replay_journal(&path).unwrap();
        assert_eq!(replay.records.len(), 4);
        assert_eq!(replay.records[3], record(3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_foreign_files() {
        let path = tmp("foreign.jsonl");
        std::fs::write(
            &path,
            "{\"journal\":\"other\",\"version\":1,\"manifest_fnv\":1,\"runs\":1}\n",
        )
        .unwrap();
        assert!(matches!(
            replay_journal(&path),
            Err(SweepError::Journal { .. })
        ));
        std::fs::write(&path, "not json\n").unwrap();
        assert!(matches!(
            replay_journal(&path),
            Err(SweepError::Journal { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_floats_survive_the_text_round_trip_exactly() {
        let mut rec = record(7);
        rec.delay_mean_bits = (1.0f64 / 3.0).to_bits(); // awkward mantissa
        let path = tmp("bits.jsonl");
        let mut w = JournalWriter::create(&path, 1, 1).unwrap();
        w.append_chunk(std::slice::from_ref(&rec)).unwrap();
        drop(w);
        let replay = replay_journal(&path).unwrap();
        assert_eq!(replay.records[0].delay_mean_bits, rec.delay_mean_bits);
        assert_eq!(f64::from_bits(replay.records[0].delay_mean_bits), 1.0 / 3.0);
        std::fs::remove_file(&path).ok();
    }
}

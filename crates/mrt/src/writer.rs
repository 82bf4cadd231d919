//! Streaming MRT writer over any `io::Write`.

use crate::error::MrtError;
use crate::record::MrtRecord;
use std::io::Write;

/// Writes MRT records to an underlying stream.
///
/// Every record is encoded into one buffer the writer keeps, so writing
/// a record allocates nothing once the buffer has grown to the largest
/// record.
#[derive(Debug)]
pub struct MrtWriter<W> {
    inner: W,
    buf: Vec<u8>,
    records_written: u64,
}

impl<W: Write> MrtWriter<W> {
    /// Wrap a stream.
    pub fn new(inner: W) -> Self {
        MrtWriter {
            inner,
            buf: Vec::new(),
            records_written: 0,
        }
    }

    /// Write one record with the given timestamp.
    pub fn write_record(&mut self, timestamp: u32, record: &MrtRecord) -> Result<(), MrtError> {
        self.write_with(|out| record.encode_into(timestamp, out))
    }

    /// Write the one record `encode` appends to the (empty) reused
    /// buffer. Nothing reaches the stream when `encode` fails.
    pub(crate) fn write_with(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>) -> Result<(), MrtError>,
    ) -> Result<(), MrtError> {
        self.buf.clear();
        encode(&mut self.buf)?;
        self.inner.write_all(&self.buf)?;
        self.records_written += 1;
        Ok(())
    }

    /// Number of records written so far.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Flush the stream and return the number of records written, so a
    /// failed flush of a buffered stream is reported, not dropped.
    pub(crate) fn finish(mut self) -> Result<u64, MrtError> {
        self.inner.flush()?;
        Ok(self.records_written)
    }

    /// Flush and return the underlying stream.
    pub fn into_inner(mut self) -> Result<W, MrtError> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::MrtReader;
    use crate::record::{PeerEntry, PeerIndexTable};
    use asrank_types::Asn;

    #[test]
    fn writer_reader_roundtrip() {
        let rec = MrtRecord::PeerIndexTable(PeerIndexTable {
            collector_id: 1,
            view_name: "view".into(),
            peers: vec![PeerEntry {
                bgp_id: 9,
                addr: 8,
                ipv6: false,
                asn: Asn(7),
            }],
        });
        let mut w = MrtWriter::new(Vec::new());
        w.write_record(42, &rec).unwrap();
        w.write_record(43, &rec).unwrap();
        assert_eq!(w.records_written(), 2);
        let bytes = w.into_inner().unwrap();

        let recs: Vec<_> = MrtReader::new(&bytes[..]).map(|r| r.unwrap()).collect();
        assert_eq!(recs, vec![(42, rec.clone()), (43, rec)]);
    }
}

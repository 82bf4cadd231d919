//! MRT record structures and their wire encoding (RFC 6396).

use crate::attrs::PathAttribute;
use crate::error::MrtError;
use crate::wire::{fit_u16, patch_len_u16, put_u16, put_u32, Cursor};
use asrank_types::{Asn, Ipv4Prefix, Ipv6Prefix};

/// MRT type: TABLE_DUMP (legacy v1).
pub const MRT_TABLE_DUMP: u16 = 12;
/// MRT type: TABLE_DUMP_V2.
pub const MRT_TABLE_DUMP_V2: u16 = 13;
/// TABLE_DUMP (v1) subtype: AFI_IPv4.
pub const SUBTYPE_TABLE_DUMP_AFI_IPV4: u16 = 1;
/// MRT type: BGP4MP.
pub const MRT_BGP4MP: u16 = 16;
/// TABLE_DUMP_V2 subtype: PEER_INDEX_TABLE.
pub const SUBTYPE_PEER_INDEX_TABLE: u16 = 1;
/// TABLE_DUMP_V2 subtype: RIB_IPV4_UNICAST.
pub const SUBTYPE_RIB_IPV4_UNICAST: u16 = 2;
/// TABLE_DUMP_V2 subtype: RIB_IPV6_UNICAST.
pub const SUBTYPE_RIB_IPV6_UNICAST: u16 = 4;
/// BGP4MP subtype: BGP4MP_MESSAGE_AS4.
pub const SUBTYPE_BGP4MP_MESSAGE_AS4: u16 = 4;

/// One peer in a [`PeerIndexTable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerEntry {
    /// Peer's BGP identifier.
    pub bgp_id: u32,
    /// Peer's IPv4 address (0 for IPv6 peers, see `ipv6`).
    pub addr: u32,
    /// True when the peer address on the wire was IPv6 (address bytes are
    /// not retained; the reproduction is IPv4-only).
    pub ipv6: bool,
    /// Peer ASN.
    pub asn: Asn,
}

/// `TABLE_DUMP_V2 / PEER_INDEX_TABLE`: the collector's peer directory,
/// referenced by index from every RIB record.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PeerIndexTable {
    /// Collector's BGP identifier.
    pub collector_id: u32,
    /// Optional view name.
    pub view_name: String,
    /// Peer directory.
    pub peers: Vec<PeerEntry>,
}

/// One route in a [`RibIpv4Unicast`] record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibEntry {
    /// Index into the peer table.
    pub peer_index: u16,
    /// Unix time the route was originated/learned.
    pub originated_time: u32,
    /// BGP path attributes.
    pub attributes: Vec<PathAttribute>,
}

/// `TABLE_DUMP_V2 / RIB_IPV4_UNICAST`: all collected routes for one prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibIpv4Unicast {
    /// Monotone sequence number within the dump.
    pub sequence: u32,
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// One entry per peer that contributed a route.
    pub entries: Vec<RibEntry>,
}

/// Legacy `TABLE_DUMP / AFI_IPv4` (RFC 6396 §4.2): one route per record,
/// 2-byte peer ASN and 2-byte `AS_PATH` encoding — the format of
/// RouteViews archives before 2008. Decoded so historical files are
/// first-class inputs; ASNs above 65535 appear as `AS_TRANS` when
/// re-encoded into this format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDumpV1 {
    /// View number (usually 0).
    pub view: u16,
    /// Sequence number.
    pub sequence: u16,
    /// The prefix (always fully 4-byte encoded in v1).
    pub prefix: Ipv4Prefix,
    /// Status octet (unused, normally 1).
    pub status: u8,
    /// Unix time the route was originated/learned.
    pub originated_time: u32,
    /// Peer IPv4 address.
    pub peer_ip: u32,
    /// Peer ASN (2-byte on the wire).
    pub peer_asn: Asn,
    /// BGP path attributes (AS_PATH carries 2-byte ASNs on the wire).
    pub attributes: Vec<PathAttribute>,
}

/// `TABLE_DUMP_V2 / RIB_IPV6_UNICAST`: all collected routes for one IPv6
/// prefix. The reproduction's analysis is IPv4-scoped, but real collector
/// dumps interleave these records; decoding them (rather than skipping
/// opaque bytes) lets readers account for the v6 table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RibIpv6Unicast {
    /// Monotone sequence number within the dump.
    pub sequence: u32,
    /// The IPv6 prefix.
    pub prefix: Ipv6Prefix,
    /// One entry per peer that contributed a route.
    pub entries: Vec<RibEntry>,
}

/// A BGP UPDATE message body (RFC 4271 §4.3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BgpUpdate {
    /// Withdrawn prefixes.
    pub withdrawn: Vec<Ipv4Prefix>,
    /// Path attributes applying to all announced prefixes.
    pub attributes: Vec<PathAttribute>,
    /// Announced prefixes (NLRI).
    pub announced: Vec<Ipv4Prefix>,
}

/// `BGP4MP / BGP4MP_MESSAGE_AS4`: one captured BGP UPDATE with 4-byte
/// ASN header fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bgp4mpMessageAs4 {
    /// ASN of the peer that sent the message.
    pub peer_asn: Asn,
    /// ASN of the collector side.
    pub local_asn: Asn,
    /// Interface index (usually 0 in collector dumps).
    pub if_index: u16,
    /// Peer IPv4 address.
    pub peer_ip: u32,
    /// Local IPv4 address.
    pub local_ip: u32,
    /// The UPDATE message.
    pub update: BgpUpdate,
}

/// Any MRT record the codec understands, plus a lossless fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MrtRecord {
    /// TABLE_DUMP_V2 peer index table.
    PeerIndexTable(PeerIndexTable),
    /// TABLE_DUMP_V2 IPv4 unicast RIB record.
    RibIpv4Unicast(RibIpv4Unicast),
    /// TABLE_DUMP_V2 IPv6 unicast RIB record.
    RibIpv6Unicast(RibIpv6Unicast),
    /// Legacy TABLE_DUMP (v1) IPv4 record.
    TableDumpV1(TableDumpV1),
    /// BGP4MP AS4 UPDATE message.
    Bgp4mpMessageAs4(Bgp4mpMessageAs4),
    /// Anything else, preserved verbatim.
    Unknown {
        /// MRT type field.
        mrt_type: u16,
        /// MRT subtype field.
        subtype: u16,
        /// Raw record body.
        body: Vec<u8>,
    },
}

// --- NLRI helpers -----------------------------------------------------

/// Encode one prefix in NLRI form: length byte + minimal prefix bytes.
pub(crate) fn encode_nlri(out: &mut Vec<u8>, p: &Ipv4Prefix) {
    out.push(p.len());
    let bytes = p.network().to_be_bytes();
    out.extend_from_slice(&bytes[..(p.len() as usize).div_ceil(8)]);
}

/// Decode one NLRI prefix.
pub(crate) fn decode_nlri(c: &mut Cursor<'_>) -> Result<Ipv4Prefix, MrtError> {
    let len = c.u8("nlri length")?;
    if len > 32 {
        return Err(MrtError::BadLength {
            context: "nlri length",
            value: len as usize,
        });
    }
    let nbytes = (len as usize).div_ceil(8);
    let raw = c.take(nbytes, "nlri prefix")?;
    let mut b = [0u8; 4];
    b[..nbytes].copy_from_slice(raw);
    Ipv4Prefix::new(u32::from_be_bytes(b), len).map_err(|_| MrtError::BadLength {
        context: "nlri prefix",
        value: len as usize,
    })
}

/// Encode one IPv6 prefix in NLRI form.
pub(crate) fn encode_nlri6(out: &mut Vec<u8>, p: &Ipv6Prefix) {
    out.push(p.len());
    let bytes = p.network().to_be_bytes();
    out.extend_from_slice(&bytes[..(p.len() as usize).div_ceil(8)]);
}

/// Decode one IPv6 NLRI prefix.
pub(crate) fn decode_nlri6(c: &mut Cursor<'_>) -> Result<Ipv6Prefix, MrtError> {
    let len = c.u8("nlri6 length")?;
    if len > 128 {
        return Err(MrtError::BadLength {
            context: "nlri6 length",
            value: len as usize,
        });
    }
    let nbytes = (len as usize).div_ceil(8);
    let raw = c.take(nbytes, "nlri6 prefix")?;
    let mut b = [0u8; 16];
    b[..nbytes].copy_from_slice(raw);
    Ipv6Prefix::new(u128::from_be_bytes(b), len).map_err(|_| MrtError::BadLength {
        context: "nlri6 prefix",
        value: len as usize,
    })
}

/// Decode a block of consecutive NLRI prefixes of exactly `len` bytes.
fn decode_nlri_block(c: &mut Cursor<'_>, len: usize) -> Result<Vec<Ipv4Prefix>, MrtError> {
    let mut sub = c.sub(len, "nlri block")?;
    let mut out = Vec::new();
    while !sub.is_empty() {
        out.push(decode_nlri(&mut sub)?);
    }
    Ok(out)
}

// --- Record framing ---------------------------------------------------

/// Append an MRT common header whose length is left zero, returning the
/// header's offset for [`end_record`].
pub(crate) fn begin_record(
    out: &mut Vec<u8>,
    timestamp: u32,
    mrt_type: u16,
    subtype: u16,
) -> usize {
    let start = out.len();
    put_u32(out, timestamp);
    put_u16(out, mrt_type);
    put_u16(out, subtype);
    put_u32(out, 0);
    start
}

/// Patch the length of the record begun at `start` to cover every byte
/// written after its header.
pub(crate) fn end_record(out: &mut [u8], start: usize) -> Result<(), MrtError> {
    let body = out.len() - start - 12;
    let len = u32::try_from(body).map_err(|_| MrtError::Overflow {
        context: "mrt length",
        value: body,
        max: u32::MAX as usize,
    })?;
    out[start + 8..start + 12].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

/// The entry count and entries of a RIB record, each entry's attribute
/// block written in place with its length patched in.
fn encode_rib_entries(out: &mut Vec<u8>, entries: &[RibEntry]) -> Result<(), MrtError> {
    put_u16(out, fit_u16(entries.len(), "rib entry count")?);
    for e in entries {
        put_u16(out, e.peer_index);
        put_u32(out, e.originated_time);
        let len_pos = out.len();
        put_u16(out, 0);
        for a in &e.attributes {
            a.encode(out)?;
        }
        patch_len_u16(out, len_pos, "rib attr length")?;
    }
    Ok(())
}

// --- Record bodies ----------------------------------------------------

impl PeerIndexTable {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), MrtError> {
        put_u32(out, self.collector_id);
        let name = self.view_name.as_bytes();
        put_u16(out, fit_u16(name.len(), "view name length")?);
        out.extend_from_slice(name);
        put_u16(out, fit_u16(self.peers.len(), "peer count")?);
        for p in &self.peers {
            // Peer type: bit 0 = IPv6 address, bit 1 = 4-byte ASN.
            // The encoder always uses 4-byte ASNs and IPv4 addresses.
            out.push(0x02);
            put_u32(out, p.bgp_id);
            put_u32(out, p.addr);
            put_u32(out, p.asn.0);
        }
        Ok(())
    }

    fn decode_body(c: &mut Cursor<'_>) -> Result<Self, MrtError> {
        let collector_id = c.u32("collector id")?;
        let name_len = c.u16("view name length")? as usize;
        let name = c.take(name_len, "view name")?;
        let view_name = String::from_utf8_lossy(name).into_owned();
        let count = c.u16("peer count")? as usize;
        let mut peers = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let ptype = c.u8("peer type")?;
            let bgp_id = c.u32("peer bgp id")?;
            let ipv6 = ptype & 0x01 != 0;
            let addr = if ipv6 {
                c.take(16, "peer ipv6 addr")?;
                0
            } else {
                c.u32("peer ipv4 addr")?
            };
            let asn = if ptype & 0x02 != 0 {
                Asn(c.u32("peer as4")?)
            } else {
                Asn(c.u16("peer as2")? as u32)
            };
            peers.push(PeerEntry {
                bgp_id,
                addr,
                ipv6,
                asn,
            });
        }
        Ok(PeerIndexTable {
            collector_id,
            view_name,
            peers,
        })
    }
}

impl RibIpv4Unicast {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), MrtError> {
        put_u32(out, self.sequence);
        encode_nlri(out, &self.prefix);
        encode_rib_entries(out, &self.entries)
    }

    fn decode_body(c: &mut Cursor<'_>) -> Result<Self, MrtError> {
        let sequence = c.u32("rib sequence")?;
        let prefix = decode_nlri(c)?;
        let count = c.u16("rib entry count")? as usize;
        let mut entries = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let peer_index = c.u16("rib peer index")?;
            let originated_time = c.u32("rib originated time")?;
            let attr_len = c.u16("rib attr length")? as usize;
            let attributes = PathAttribute::decode_block(c, attr_len)?;
            entries.push(RibEntry {
                peer_index,
                originated_time,
                attributes,
            });
        }
        Ok(RibIpv4Unicast {
            sequence,
            prefix,
            entries,
        })
    }
}

impl RibIpv6Unicast {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), MrtError> {
        put_u32(out, self.sequence);
        encode_nlri6(out, &self.prefix);
        encode_rib_entries(out, &self.entries)
    }

    fn decode_body(c: &mut Cursor<'_>) -> Result<Self, MrtError> {
        let sequence = c.u32("rib6 sequence")?;
        let prefix = decode_nlri6(c)?;
        let count = c.u16("rib6 entry count")? as usize;
        let mut entries = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let peer_index = c.u16("rib6 peer index")?;
            let originated_time = c.u32("rib6 originated time")?;
            let attr_len = c.u16("rib6 attr length")? as usize;
            let attributes = PathAttribute::decode_block(c, attr_len)?;
            entries.push(RibEntry {
                peer_index,
                originated_time,
                attributes,
            });
        }
        Ok(RibIpv6Unicast {
            sequence,
            prefix,
            entries,
        })
    }
}

impl TableDumpV1 {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), MrtError> {
        put_u16(out, self.view);
        put_u16(out, self.sequence);
        // v1 always writes the full 4-byte prefix plus a length octet.
        put_u32(out, self.prefix.network());
        out.push(self.prefix.len());
        out.push(self.status);
        put_u32(out, self.originated_time);
        put_u32(out, self.peer_ip);
        let short = if self.peer_asn.0 > u16::MAX as u32 {
            23456
        } else {
            self.peer_asn.0 as u16
        };
        put_u16(out, short);
        let len_pos = out.len();
        put_u16(out, 0);
        for a in &self.attributes {
            a.encode_sized(out, false)?;
        }
        patch_len_u16(out, len_pos, "td1 attr length")
    }

    fn decode_body(c: &mut Cursor<'_>) -> Result<Self, MrtError> {
        let view = c.u16("td1 view")?;
        let sequence = c.u16("td1 sequence")?;
        let addr = c.u32("td1 prefix")?;
        let len = c.u8("td1 prefix length")?;
        let prefix = Ipv4Prefix::new(addr, len).map_err(|_| MrtError::BadLength {
            context: "td1 prefix length",
            value: len as usize,
        })?;
        let status = c.u8("td1 status")?;
        let originated_time = c.u32("td1 originated")?;
        let peer_ip = c.u32("td1 peer ip")?;
        let peer_asn = Asn(c.u16("td1 peer asn")? as u32);
        let attr_len = c.u16("td1 attr length")? as usize;
        let attributes = PathAttribute::decode_block_sized(c, attr_len, false)?;
        Ok(TableDumpV1 {
            view,
            sequence,
            prefix,
            status,
            originated_time,
            peer_ip,
            peer_asn,
            attributes,
        })
    }
}

/// Append a BGP UPDATE message (marker + header + body): the withdrawn
/// prefixes, the attribute block `attributes` appends, and the
/// announced prefixes, with every length patched in.
pub(crate) fn encode_update_message<'a>(
    out: &mut Vec<u8>,
    withdrawn: impl IntoIterator<Item = &'a Ipv4Prefix>,
    attributes: impl FnOnce(&mut Vec<u8>) -> Result<(), MrtError>,
    announced: impl IntoIterator<Item = &'a Ipv4Prefix>,
) -> Result<(), MrtError> {
    let start = out.len();
    out.extend_from_slice(&[0xff; 16]);
    let len_pos = out.len();
    put_u16(out, 0); // patched below
    out.push(2); // message type: UPDATE

    let withdrawn_pos = out.len();
    put_u16(out, 0);
    for p in withdrawn {
        encode_nlri(out, p);
    }
    patch_len_u16(out, withdrawn_pos, "withdrawn length")?;

    let attrs_pos = out.len();
    put_u16(out, 0);
    attributes(out)?;
    patch_len_u16(out, attrs_pos, "attributes length")?;

    for p in announced {
        encode_nlri(out, p);
    }

    let total = fit_u16(out.len() - start, "bgp message length")?;
    out[len_pos..len_pos + 2].copy_from_slice(&total.to_be_bytes());
    Ok(())
}

/// Append the `BGP4MP_MESSAGE_AS4` fields that precede the BGP message.
pub(crate) fn put_bgp4mp_as4_header(
    out: &mut Vec<u8>,
    peer_asn: Asn,
    local_asn: Asn,
    if_index: u16,
    peer_ip: u32,
    local_ip: u32,
) {
    put_u32(out, peer_asn.0);
    put_u32(out, local_asn.0);
    put_u16(out, if_index);
    put_u16(out, 1); // AFI: IPv4
    put_u32(out, peer_ip);
    put_u32(out, local_ip);
}

impl BgpUpdate {
    /// Encode the UPDATE as a full BGP message (marker + header + body).
    fn encode_message(&self, out: &mut Vec<u8>) -> Result<(), MrtError> {
        encode_update_message(
            out,
            &self.withdrawn,
            |out| self.attributes.iter().try_for_each(|a| a.encode(out)),
            &self.announced,
        )
    }

    /// Decode a full BGP message, expecting an UPDATE.
    fn decode_message(c: &mut Cursor<'_>) -> Result<Self, MrtError> {
        let marker = c.take(16, "bgp marker")?;
        if marker != [0xff; 16] {
            return Err(MrtError::BadMarker);
        }
        let total = c.u16("bgp message length")? as usize;
        if total < 19 {
            return Err(MrtError::BadLength {
                context: "bgp message length",
                value: total,
            });
        }
        let msg_type = c.u8("bgp message type")?;
        if msg_type != 2 {
            return Err(MrtError::BadValue {
                context: "bgp message type (only UPDATE supported)",
                value: msg_type as u64,
            });
        }
        let mut body = c.sub(total - 19, "bgp update body")?;
        let wlen = body.u16("withdrawn length")? as usize;
        let withdrawn = decode_nlri_block(&mut body, wlen)?;
        let alen = body.u16("attributes length")? as usize;
        let attributes = PathAttribute::decode_block(&mut body, alen)?;
        let rest = body.remaining();
        let announced = decode_nlri_block(&mut body, rest)?;
        Ok(BgpUpdate {
            withdrawn,
            attributes,
            announced,
        })
    }
}

impl Bgp4mpMessageAs4 {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), MrtError> {
        put_bgp4mp_as4_header(
            out,
            self.peer_asn,
            self.local_asn,
            self.if_index,
            self.peer_ip,
            self.local_ip,
        );
        self.update.encode_message(out)
    }

    fn decode_body(c: &mut Cursor<'_>) -> Result<Self, MrtError> {
        let peer_asn = Asn(c.u32("bgp4mp peer asn")?);
        let local_asn = Asn(c.u32("bgp4mp local asn")?);
        let if_index = c.u16("bgp4mp ifindex")?;
        let afi = c.u16("bgp4mp afi")?;
        if afi != 1 {
            return Err(MrtError::BadValue {
                context: "bgp4mp afi (only IPv4 supported)",
                value: afi as u64,
            });
        }
        let peer_ip = c.u32("bgp4mp peer ip")?;
        let local_ip = c.u32("bgp4mp local ip")?;
        let update = BgpUpdate::decode_message(c)?;
        Ok(Bgp4mpMessageAs4 {
            peer_asn,
            local_asn,
            if_index,
            peer_ip,
            local_ip,
            update,
        })
    }
}

impl MrtRecord {
    /// MRT (type, subtype) pair for this record.
    pub fn type_pair(&self) -> (u16, u16) {
        match self {
            MrtRecord::PeerIndexTable(_) => (MRT_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE),
            MrtRecord::RibIpv4Unicast(_) => (MRT_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST),
            MrtRecord::RibIpv6Unicast(_) => (MRT_TABLE_DUMP_V2, SUBTYPE_RIB_IPV6_UNICAST),
            MrtRecord::TableDumpV1(_) => (MRT_TABLE_DUMP, SUBTYPE_TABLE_DUMP_AFI_IPV4),
            MrtRecord::Bgp4mpMessageAs4(_) => (MRT_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4),
            MrtRecord::Unknown {
                mrt_type, subtype, ..
            } => (*mrt_type, *subtype),
        }
    }

    /// Encode the record with its MRT common header.
    pub fn encode(&self, timestamp: u32) -> Result<Vec<u8>, MrtError> {
        let mut out = Vec::new();
        self.encode_into(timestamp, &mut out)?;
        Ok(out)
    }

    /// Append the record with its MRT common header to `out`: the body is
    /// written in place after the header and its length patched in. A
    /// count or length that does not fit its field is
    /// [`MrtError::Overflow`]; `out` then holds a partial record, which
    /// the caller discards.
    pub fn encode_into(&self, timestamp: u32, out: &mut Vec<u8>) -> Result<(), MrtError> {
        let (t, s) = self.type_pair();
        let start = begin_record(out, timestamp, t, s);
        match self {
            MrtRecord::PeerIndexTable(t) => t.encode_body(out)?,
            MrtRecord::RibIpv4Unicast(r) => r.encode_body(out)?,
            MrtRecord::RibIpv6Unicast(r) => r.encode_body(out)?,
            MrtRecord::TableDumpV1(r) => r.encode_body(out)?,
            MrtRecord::Bgp4mpMessageAs4(m) => m.encode_body(out)?,
            MrtRecord::Unknown { body, .. } => out.extend_from_slice(body),
        }
        end_record(out, start)
    }

    /// Decode one record (header + body) from the cursor, returning the
    /// record's timestamp alongside it.
    pub fn decode(c: &mut Cursor<'_>) -> Result<(u32, MrtRecord), MrtError> {
        let timestamp = c.u32("mrt timestamp")?;
        let mrt_type = c.u16("mrt type")?;
        let subtype = c.u16("mrt subtype")?;
        let len = c.u32("mrt length")? as usize;
        let mut body = c.sub(len, "mrt body")?;
        let record = match (mrt_type, subtype) {
            (MRT_TABLE_DUMP_V2, SUBTYPE_PEER_INDEX_TABLE) => {
                MrtRecord::PeerIndexTable(PeerIndexTable::decode_body(&mut body)?)
            }
            (MRT_TABLE_DUMP_V2, SUBTYPE_RIB_IPV4_UNICAST) => {
                MrtRecord::RibIpv4Unicast(RibIpv4Unicast::decode_body(&mut body)?)
            }
            (MRT_TABLE_DUMP_V2, SUBTYPE_RIB_IPV6_UNICAST) => {
                MrtRecord::RibIpv6Unicast(RibIpv6Unicast::decode_body(&mut body)?)
            }
            (MRT_TABLE_DUMP, SUBTYPE_TABLE_DUMP_AFI_IPV4) => {
                MrtRecord::TableDumpV1(TableDumpV1::decode_body(&mut body)?)
            }
            (MRT_BGP4MP, SUBTYPE_BGP4MP_MESSAGE_AS4) => {
                MrtRecord::Bgp4mpMessageAs4(Bgp4mpMessageAs4::decode_body(&mut body)?)
            }
            _ => MrtRecord::Unknown {
                mrt_type,
                subtype,
                body: body.take(body.remaining(), "unknown body")?.to_vec(),
            },
        };
        Ok((timestamp, record))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asrank_types::AsPath;

    fn rt(rec: MrtRecord) -> MrtRecord {
        let buf = rec.encode(1_700_000_000).unwrap();
        let mut c = Cursor::new(&buf);
        let (ts, out) = MrtRecord::decode(&mut c).unwrap();
        assert_eq!(ts, 1_700_000_000);
        assert!(c.is_empty());
        out
    }

    fn sample_peer_table() -> PeerIndexTable {
        PeerIndexTable {
            collector_id: 0xc0a80001,
            view_name: "rv2".into(),
            peers: vec![
                PeerEntry {
                    bgp_id: 1,
                    addr: 0x0a000001,
                    ipv6: false,
                    asn: Asn(7018),
                },
                PeerEntry {
                    bgp_id: 2,
                    addr: 0x0a000002,
                    ipv6: false,
                    asn: Asn(286_000_000),
                },
            ],
        }
    }

    #[test]
    fn peer_index_table_roundtrip() {
        let t = sample_peer_table();
        assert_eq!(
            rt(MrtRecord::PeerIndexTable(t.clone())),
            MrtRecord::PeerIndexTable(t)
        );
    }

    #[test]
    fn rib_roundtrip() {
        let rec = RibIpv4Unicast {
            sequence: 7,
            prefix: "10.20.0.0/14".parse().unwrap(),
            entries: vec![RibEntry {
                peer_index: 1,
                originated_time: 12345,
                attributes: vec![
                    PathAttribute::Origin(0),
                    PathAttribute::as_path_sequence(&AsPath::from_u32s([7018, 3356, 15169])),
                    PathAttribute::NextHop(0x0a000001),
                ],
            }],
        };
        assert_eq!(
            rt(MrtRecord::RibIpv4Unicast(rec.clone())),
            MrtRecord::RibIpv4Unicast(rec)
        );
    }

    #[test]
    fn bgp4mp_update_roundtrip() {
        let rec = Bgp4mpMessageAs4 {
            peer_asn: Asn(3356),
            local_asn: Asn(65001),
            if_index: 0,
            peer_ip: 0x01020304,
            local_ip: 0x05060708,
            update: BgpUpdate {
                withdrawn: vec!["192.0.2.0/24".parse().unwrap()],
                attributes: vec![
                    PathAttribute::Origin(2),
                    PathAttribute::as_path_sequence(&AsPath::from_u32s([3356, 1299])),
                ],
                announced: vec![
                    "10.0.0.0/8".parse().unwrap(),
                    "172.16.0.0/12".parse().unwrap(),
                ],
            },
        };
        assert_eq!(
            rt(MrtRecord::Bgp4mpMessageAs4(rec.clone())),
            MrtRecord::Bgp4mpMessageAs4(rec)
        );
    }

    #[test]
    fn unknown_record_roundtrip() {
        let rec = MrtRecord::Unknown {
            mrt_type: 48,
            subtype: 9,
            body: vec![1, 2, 3],
        };
        assert_eq!(rt(rec.clone()), rec);
    }

    #[test]
    fn nlri_zero_length_prefix() {
        let mut buf = Vec::new();
        encode_nlri(&mut buf, &Ipv4Prefix::DEFAULT_ROUTE);
        assert_eq!(buf, vec![0]);
        let p = decode_nlri(&mut Cursor::new(&buf)).unwrap();
        assert!(p.is_default());
    }

    #[test]
    fn nlri_rejects_overlong_prefix() {
        let buf = [33u8, 1, 2, 3, 4, 5];
        assert!(matches!(
            decode_nlri(&mut Cursor::new(&buf)),
            Err(MrtError::BadLength { .. })
        ));
    }

    #[test]
    fn bad_marker_rejected() {
        let rec = Bgp4mpMessageAs4 {
            peer_asn: Asn(1),
            local_asn: Asn(2),
            if_index: 0,
            peer_ip: 0,
            local_ip: 0,
            update: BgpUpdate::default(),
        };
        let mut buf = MrtRecord::Bgp4mpMessageAs4(rec).encode(0).unwrap();
        // Marker starts after the 12-byte MRT header + 20 bytes of BGP4MP
        // head (peer/local ASN, ifindex, AFI, peer/local IPv4).
        buf[12 + 20] = 0x00;
        assert!(matches!(
            MrtRecord::decode(&mut Cursor::new(&buf)),
            Err(MrtError::BadMarker)
        ));
    }

    #[test]
    fn truncated_header_is_error() {
        let buf = [0u8; 5];
        assert!(matches!(
            MrtRecord::decode(&mut Cursor::new(&buf)),
            Err(MrtError::Truncated { .. })
        ));
    }

    #[test]
    fn table_dump_v1_roundtrip() {
        let rec = TableDumpV1 {
            view: 0,
            sequence: 42,
            prefix: "192.0.2.0/24".parse().unwrap(),
            status: 1,
            originated_time: 1_100_000_000,
            peer_ip: 0x0a000001,
            peer_asn: Asn(7018),
            attributes: vec![
                PathAttribute::Origin(0),
                PathAttribute::as_path_sequence(&AsPath::from_u32s([7018, 701, 3356])),
            ],
        };
        assert_eq!(
            rt(MrtRecord::TableDumpV1(rec.clone())),
            MrtRecord::TableDumpV1(rec)
        );
    }

    #[test]
    fn rib_ipv6_roundtrip() {
        let rec = RibIpv6Unicast {
            sequence: 11,
            prefix: "2001:db8::/32".parse().unwrap(),
            entries: vec![RibEntry {
                peer_index: 0,
                originated_time: 99,
                attributes: vec![
                    PathAttribute::Origin(0),
                    PathAttribute::as_path_sequence(&AsPath::from_u32s([6939, 15169])),
                ],
            }],
        };
        assert_eq!(
            rt(MrtRecord::RibIpv6Unicast(rec.clone())),
            MrtRecord::RibIpv6Unicast(rec)
        );
    }

    #[test]
    fn nlri6_rejects_overlong() {
        let buf = [129u8, 1, 2];
        assert!(matches!(
            decode_nlri6(&mut Cursor::new(&buf)),
            Err(MrtError::BadLength { .. })
        ));
    }

    #[test]
    fn peer_table_with_as2_and_ipv6_decodes() {
        // Hand-build a body with one AS2/IPv4 peer and one AS4/IPv6 peer.
        let mut body = Vec::new();
        put_u32(&mut body, 9); // collector
        put_u16(&mut body, 0); // empty view name
        put_u16(&mut body, 2); // two peers
        body.push(0x00); // AS2 + IPv4
        put_u32(&mut body, 11); // bgp id
        put_u32(&mut body, 0x0a0a0a0a);
        put_u16(&mut body, 65000);
        body.push(0x03); // AS4 + IPv6
        put_u32(&mut body, 12);
        body.extend_from_slice(&[0u8; 16]);
        put_u32(&mut body, 400000);

        let mut rec = Vec::new();
        put_u32(&mut rec, 0);
        put_u16(&mut rec, MRT_TABLE_DUMP_V2);
        put_u16(&mut rec, SUBTYPE_PEER_INDEX_TABLE);
        put_u32(&mut rec, body.len() as u32);
        rec.extend_from_slice(&body);

        let (_, parsed) = MrtRecord::decode(&mut Cursor::new(&rec)).unwrap();
        match parsed {
            MrtRecord::PeerIndexTable(t) => {
                assert_eq!(t.peers[0].asn, Asn(65000));
                assert!(!t.peers[0].ipv6);
                assert_eq!(t.peers[1].asn, Asn(400000));
                assert!(t.peers[1].ipv6);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

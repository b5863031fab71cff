//! Record framing: `[len: u32 LE][crc32: u32 LE][payload]`.
//!
//! The CRC covers the payload bytes only; the length field is implicitly
//! validated by the CRC (a corrupted length either exceeds the remaining
//! bytes — an incomplete frame — or frames the wrong byte range, which the
//! CRC rejects with probability 1 − 2⁻³²). Recovery reads frames until the
//! first one that fails either check and truncates there: a torn tail
//! (crash mid-`write`) costs exactly the records the OS never persisted,
//! never a corrupted record.

use std::io::{self, Read};

/// Frame header size: 4-byte length + 4-byte CRC.
pub const HEADER_LEN: usize = 8;

/// Upper bound on one record's payload (64 MiB). A length field above this
/// is treated as corruption, not as an instruction to allocate gigabytes.
pub const MAX_PAYLOAD: usize = 64 << 20;

// The reader rejects a length over MAX_PAYLOAD, so the writer refusing the
// same bound also keeps every length inside the header's u32.
const _: () = assert!(MAX_PAYLOAD <= u32::MAX as usize);

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) lookup tables for
/// slicing-by-8, generated at compile time so the crate needs no checksum
/// dependency. `CRC_TABLES[0]` is the classic one-byte table;
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so
/// eight lookups advance the checksum over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Finish a frame built in place: `frame[..HEADER_LEN]` is reserved and
/// `frame[HEADER_LEN..]` is the payload, whose length and CRC are patched
/// into the header. A payload over [`MAX_PAYLOAD`] is refused, because
/// [`decode_frame`] treats such a length as corruption and recovery would
/// cut the log there.
pub fn seal_frame(frame: &mut [u8]) -> io::Result<()> {
    let len = frame.len().checked_sub(HEADER_LEN).expect("a frame starts with its reserved header");
    if len > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte limit"),
        ));
    }
    let crc = crc32(&frame[HEADER_LEN..]);
    frame[0..4].copy_from_slice(&(len as u32).to_le_bytes());
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Build a frame whose payload `fill` writes straight behind the header,
/// so a record is encoded once and never copied into its frame.
pub fn frame_with(fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<Vec<u8>> {
    let mut out = Vec::with_capacity(HEADER_LEN + 64);
    out.extend_from_slice(&[0u8; HEADER_LEN]);
    fill(&mut out);
    seal_frame(&mut out)?;
    Ok(out)
}

/// Frame a payload: header + payload, ready to append. Errors (never
/// truncates) when the payload is over [`MAX_PAYLOAD`].
pub fn encode_frame(payload: &[u8]) -> io::Result<Vec<u8>> {
    frame_with(|out| out.extend_from_slice(payload))
}

/// Why frame decoding stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes remain than a complete header + payload — the torn tail
    /// of an interrupted append.
    Incomplete,
    /// The length field is beyond [`MAX_PAYLOAD`] (corrupt header).
    BadLength,
    /// The payload bytes do not hash to the recorded CRC.
    BadCrc,
}

/// Decode the frame starting at `buf[offset..]`. On success returns the
/// payload slice and the offset of the next frame.
pub fn decode_frame(buf: &[u8], offset: usize) -> Result<(&[u8], usize), FrameError> {
    let rest = &buf[offset.min(buf.len())..];
    if rest.len() < HEADER_LEN {
        return Err(FrameError::Incomplete);
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::BadLength);
    }
    let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
    if rest.len() < HEADER_LEN + len {
        return Err(FrameError::Incomplete);
    }
    let payload = &rest[HEADER_LEN..HEADER_LEN + len];
    if crc32(payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok((payload, offset + HEADER_LEN + len))
}

/// Decode every valid frame from the start of `buf`, stopping at the first
/// bad one. Returns the payload ranges and the byte offset of the valid
/// prefix (callers truncate the file there).
pub fn decode_all(buf: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut frames = Vec::new();
    let mut offset = 0;
    while let Ok((payload, next)) = decode_frame(buf, offset) {
        frames.push(payload);
        offset = next;
    }
    (frames, offset)
}

/// Read the next frame from a stream into `payload` (cleared first), for
/// files too large to hold whole. A stream that ends before the frame does
/// is [`io::ErrorKind::UnexpectedEof`]; a length over [`MAX_PAYLOAD`] or a
/// CRC mismatch is [`io::ErrorKind::InvalidData`].
pub fn read_frame(reader: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<()> {
    let mut header = [0u8; HEADER_LEN];
    reader.read_exact(&mut header)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_PAYLOAD {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame length beyond limit"));
    }
    payload.clear();
    // `take` + `read_to_end` grows the buffer as bytes arrive, so a corrupt
    // length on a short file cannot reserve more than the file holds.
    if reader.take(len as u64).read_to_end(payload)? < len {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    if crc32(payload) != crc {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame CRC mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-lookup loop the sliced version replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_loop_on_random_lengths() {
        // SplitMix64: seeded, so a failure repeats.
        let mut x = 0x5EED_u64;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut lengths: Vec<usize> = (0..=64).collect();
        lengths.extend((0..200).map(|_| (next() % 4097) as usize));
        for len in lengths {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            // Every alignment of the 8-byte body within the buffer.
            for skip in 0..=len.min(8) {
                assert_eq!(crc32(&bytes[skip..]), crc32_bytewise(&bytes[skip..]), "len {len}");
            }
        }
    }

    #[test]
    fn oversized_payload_is_refused_not_truncated() {
        let too_big = vec![0u8; MAX_PAYLOAD + 1];
        let err = encode_frame(&too_big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // The bound itself is a valid frame on both sides.
        let framed = encode_frame(&too_big[..MAX_PAYLOAD]).unwrap();
        assert_eq!(decode_frame(&framed, 0).unwrap().0.len(), MAX_PAYLOAD);
    }

    #[test]
    fn read_frame_agrees_with_decode_frame() {
        let mut buf = Vec::new();
        for i in 0..5u32 {
            buf.extend_from_slice(&encode_frame(format!("record-{i}").as_bytes()).unwrap());
        }
        let mut reader = &buf[..];
        let mut payload = Vec::new();
        for i in 0..5u32 {
            read_frame(&mut reader, &mut payload).unwrap();
            assert_eq!(payload, format!("record-{i}").as_bytes());
        }
        assert_eq!(
            read_frame(&mut reader, &mut payload).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // Torn mid-payload, flipped bit, absurd length.
        let frame = encode_frame(b"payload-bytes").unwrap();
        let mut torn = &frame[..frame.len() - 1];
        assert_eq!(
            read_frame(&mut torn, &mut payload).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        let mut flipped = frame.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert_eq!(
            read_frame(&mut &flipped[..], &mut payload).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut absurd = [0xFFu8; 16];
        absurd[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut &absurd[..], &mut payload).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_single_frame() {
        let framed = encode_frame(b"hello wal").unwrap();
        let (payload, next) = decode_frame(&framed, 0).unwrap();
        assert_eq!(payload, b"hello wal");
        assert_eq!(next, framed.len());
    }

    #[test]
    fn roundtrip_many_frames() {
        let mut buf = Vec::new();
        for i in 0..100u32 {
            buf.extend_from_slice(&encode_frame(format!("record-{i}").as_bytes()).unwrap());
        }
        let (frames, valid) = decode_all(&buf);
        assert_eq!(frames.len(), 100);
        assert_eq!(valid, buf.len());
        assert_eq!(frames[41], b"record-41");
    }

    #[test]
    fn torn_tail_truncates_at_last_complete_frame() {
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for i in 0..10u32 {
            buf.extend_from_slice(&encode_frame(&i.to_le_bytes()).unwrap());
            boundaries.push(buf.len());
        }
        // Cutting anywhere inside frame k keeps exactly frames 0..k.
        for cut in 0..buf.len() {
            let (frames, valid) = decode_all(&buf[..cut]);
            let k = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(frames.len(), k, "cut at {cut}");
            assert_eq!(valid, boundaries[k], "cut at {cut}");
        }
    }

    #[test]
    fn flipped_bit_is_rejected() {
        let mut buf = encode_frame(b"payload-bytes").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert_eq!(decode_frame(&buf, 0), Err(FrameError::BadCrc));
    }

    #[test]
    fn absurd_length_is_rejected_not_allocated() {
        let mut buf = vec![0xFFu8; 16];
        buf[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(decode_frame(&buf, 0), Err(FrameError::BadLength));
    }
}

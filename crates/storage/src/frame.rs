//! CRC-framed records: the unit of integrity in every on-disk file.
//!
//! Every record — journal entries, base snapshots, watermarks, the
//! store's control files — is written as
//!
//! ```text
//!   [len: u32 LE] [crc32(payload): u32 LE] [payload: len bytes]
//! ```
//!
//! A reader accepts a record only if the full `len` bytes are present
//! *and* their CRC matches. A torn final record (the classic crash
//! shape: the OS persisted a prefix of the last write) therefore fails
//! closed: the scanner stops at the first bad frame and drops the
//! remainder of the file, never handing a half-written update to the
//! replica.
//!
//! [`FrameScanner`] walks a buffer already in memory (the small
//! control files); [`FrameReader`] streams a journal generation of
//! any size through a bounded window.

use std::io::{self, Read};

const CRC_POLY: u32 = 0xEDB8_8320; // reflected IEEE 802.3

/// One byte's worth of polynomial division: eight shift-and-xor steps.
const fn crc_byte(mut crc: u32) -> u32 {
    let mut bit = 0;
    while bit < 8 {
        let mask = (crc & 1).wrapping_neg();
        crc = (crc >> 1) ^ (CRC_POLY & mask);
        bit += 1;
    }
    crc
}

/// Slicing-by-8 tables: `CRC_TABLES[k][b]` is byte `b` followed by `k`
/// zero bytes, so eight bytes are summed with eight independent
/// lookups instead of a chain of eight dependent ones.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        tables[0][i] = crc_byte(i as u32);
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

/// CRC-32 (IEEE), eight bytes a step and the tail a byte at a time —
/// every journaled record is summed once on the write path and once
/// per recovery scan.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Upper bound on a single record's payload: frames claiming more are
/// treated as corruption rather than allocated (a torn length prefix
/// can decode to anything).
pub const MAX_FRAME_LEN: usize = 1 << 28;

/// Bytes a frame adds in front of its payload (length + CRC).
pub const FRAME_HEADER: usize = 8;

/// Append one framed record to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let start = begin_frame(out);
    out.extend_from_slice(payload);
    end_frame(out, start);
}

/// A framed record in a fresh buffer.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_HEADER);
    write_frame(&mut out, payload);
    out
}

/// Open a frame in place: reserve its header at the end of `out` and
/// return where the frame starts. The caller encodes the payload
/// straight into `out` and closes it with [`end_frame`] — the hot
/// append path frames a record without a scratch buffer — or drops
/// it again with `out.truncate(start)`.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    start
}

/// Close the frame opened at `start` by [`begin_frame`]: everything
/// after its header is the payload.
///
/// # Panics
///
/// If the payload exceeds [`MAX_FRAME_LEN`], which readers refuse.
pub fn end_frame(out: &mut [u8], start: usize) {
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER);
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "a record of {} bytes would read back as corruption",
        payload.len()
    );
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
}

/// Iterate the valid frames of `buf`, stopping at the first torn or
/// corrupt one. `truncated` reports whether the stop was a corruption
/// (some bytes remained) rather than a clean end of buffer.
pub struct FrameScanner<'a> {
    buf: &'a [u8],
    pos: usize,
    truncated: bool,
}

impl<'a> FrameScanner<'a> {
    /// Scan `buf` from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        FrameScanner {
            buf,
            pos: 0,
            truncated: false,
        }
    }

    /// Did the scan stop on a torn/corrupt frame (vs. a clean end)?
    pub fn truncated(&self) -> bool {
        self.truncated
    }
}

impl<'a> Iterator for FrameScanner<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.truncated || self.pos == self.buf.len() {
            return None;
        }
        let header_end = self.pos.checked_add(8)?;
        if header_end > self.buf.len() {
            self.truncated = true;
            return None;
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(self.buf[self.pos + 4..header_end].try_into().unwrap());
        let Some(end) = header_end.checked_add(len) else {
            self.truncated = true;
            return None;
        };
        if len > MAX_FRAME_LEN || end > self.buf.len() {
            self.truncated = true;
            return None;
        }
        let payload = &self.buf[header_end..end];
        if crc32(payload) != crc {
            self.truncated = true;
            return None;
        }
        self.pos = end;
        Some(payload)
    }
}

/// First read window of a [`FrameReader`]; it grows only to hold a
/// single frame larger than this.
const READ_WINDOW: usize = 8 << 10;

/// Stream the valid frames of a file of `len` bytes through a bounded
/// window, stopping — like [`FrameScanner`] — at the first torn or
/// corrupt frame. Memory is O(window + largest frame), never O(file):
/// recovery and generation rewrites both read journals through this.
pub struct FrameReader<R> {
    src: R,
    /// Bytes of `src` the caller vouches for (the file's length): a
    /// frame claiming to reach past it is torn, and is never allocated
    /// for.
    len: u64,
    window: Vec<u8>,
    /// `window[start..end]` holds the bytes read but not yet returned.
    start: usize,
    end: usize,
    /// Offset in `src` just past the last frame returned.
    offset: u64,
    truncated: bool,
    verify: bool,
}

impl<R: Read> FrameReader<R> {
    /// Read `src`, which holds `len` bytes, from its start.
    pub fn new(src: R, len: u64) -> Self {
        FrameReader {
            src,
            len,
            window: Vec::new(),
            start: 0,
            end: 0,
            offset: 0,
            truncated: false,
            verify: true,
        }
    }

    /// Walk the frames by their length prefixes alone, without
    /// summing the payloads: for a first pass over bytes that a
    /// second, verifying pass must accept before anything read here
    /// is acted on.
    pub fn unverified(mut self) -> Self {
        self.verify = false;
        self
    }

    /// Offset just past the last frame returned: once
    /// [`FrameReader::next_frame`] has answered `None`, the length of
    /// the file's valid prefix.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Did the scan stop on a torn/corrupt frame (vs. a clean end)?
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Make `window[start..start + n]` available; `false` when `src`
    /// ends first.
    fn fill(&mut self, n: usize) -> io::Result<bool> {
        if self.end - self.start >= n {
            return Ok(true);
        }
        self.window.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.window.len() < n.max(READ_WINDOW) {
            self.window.resize(n.max(READ_WINDOW), 0);
        }
        while self.end < n {
            match self.src.read(&mut self.window[self.end..]) {
                Ok(0) => return Ok(false),
                Ok(got) => self.end += got,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// The next whole frame and the offset it starts at — header and
    /// payload, so a rewrite can copy it verbatim; the payload is
    /// `&frame[FRAME_HEADER..]` — or `None` at the clean end or the
    /// first bad frame.
    pub fn next_frame(&mut self) -> io::Result<Option<(u64, &[u8])>> {
        if self.truncated || self.offset == self.len {
            return Ok(None);
        }
        let left = self.len - self.offset;
        if left < FRAME_HEADER as u64 || !self.fill(FRAME_HEADER)? {
            self.truncated = true;
            return Ok(None);
        }
        let header = &self.window[self.start..self.start + FRAME_HEADER];
        let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
        let total = FRAME_HEADER + len;
        if len > MAX_FRAME_LEN || total as u64 > left || !self.fill(total)? {
            self.truncated = true;
            return Ok(None);
        }
        let frame = self.start..self.start + total;
        if self.verify && crc32(&self.window[frame.start + FRAME_HEADER..frame.end]) != crc {
            self.truncated = true;
            return Ok(None);
        }
        let at = self.offset;
        self.start = frame.end;
        self.offset += total as u64;
        Ok(Some((at, &self.window[frame])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise definition the table is derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = crc_byte(crc ^ u32::from(b));
        }
        !crc
    }

    #[test]
    fn table_crc_matches_the_bitwise_form_on_random_buffers() {
        // xorshift64*: seeded, so a failure names its buffer.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for round in 0..500 {
            let len = (next() % 700) as usize;
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "round {round}, len {len}");
        }
        // Every short length at every offset of a buffer: no whole
        // word, a tail of each size after one, and slices that start
        // off a word boundary.
        let buf: Vec<u8> = (0..72).map(|_| next() as u8).collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bitwise(slice),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn in_place_frames_equal_copied_frames() {
        let mut copied = Vec::new();
        write_frame(&mut copied, b"alpha");
        write_frame(&mut copied, b"");
        let mut in_place = Vec::new();
        for payload in [&b"alpha"[..], b"dropped", b""] {
            let start = begin_frame(&mut in_place);
            in_place.extend_from_slice(payload);
            if payload == b"dropped" {
                in_place.truncate(start);
            } else {
                end_frame(&mut in_place, start);
            }
        }
        assert_eq!(in_place, copied);
    }

    /// Payloads and final state of a [`FrameReader`] over `buf`.
    fn read_all(buf: &[u8]) -> (Vec<Vec<u8>>, u64, bool) {
        let mut reader = FrameReader::new(buf, buf.len() as u64);
        let mut out = Vec::new();
        while let Some((at, frame)) = reader.next_frame().unwrap() {
            assert_eq!(&buf[at as usize..][..frame.len()], frame);
            out.push(frame[FRAME_HEADER..].to_vec());
        }
        (out, reader.offset(), reader.truncated())
    }

    #[test]
    fn reader_agrees_with_scanner_at_every_truncation() {
        // Frames smaller and larger than the read window, so frames
        // straddle refills and one outgrows the window.
        let mut buf = Vec::new();
        for i in 0..40usize {
            let len = if i == 17 {
                3 * READ_WINDOW
            } else {
                i * 37 % 900
            };
            write_frame(&mut buf, &vec![i as u8; len]);
        }
        let mut cuts: Vec<usize> = (0..buf.len()).step_by(61).collect();
        cuts.push(buf.len());
        for cut in cuts {
            let mut scan = FrameScanner::new(&buf[..cut]);
            let want: Vec<Vec<u8>> = scan.by_ref().map(<[u8]>::to_vec).collect();
            let valid: usize = want.iter().map(|p| p.len() + FRAME_HEADER).sum();
            let (got, offset, truncated) = read_all(&buf[..cut]);
            assert_eq!(got, want, "cut {cut}");
            assert_eq!(offset, valid as u64, "cut {cut}");
            assert_eq!(truncated, scan.truncated(), "cut {cut}");
        }
    }

    #[test]
    fn reader_stops_at_a_flipped_bit_and_never_allocates_for_a_torn_length() {
        let mut buf = frame(b"whole");
        let good = buf.len() as u64;
        buf.extend_from_slice(&frame(b"flipped"));
        let last = buf.len() - 1;
        buf[last] ^= 1;
        assert_eq!(read_all(&buf), (vec![b"whole".to_vec()], good, true));
        // A length prefix that decodes to 200 MiB over a 20-byte file.
        let mut torn = frame(b"whole");
        torn.extend_from_slice(&(200u32 << 20).to_le_bytes());
        torn.extend_from_slice(&[0; 8]);
        let mut reader = FrameReader::new(&torn[..], torn.len() as u64);
        assert!(reader.next_frame().unwrap().is_some());
        assert!(reader.next_frame().unwrap().is_none());
        assert!(reader.truncated());
        assert!(reader.window.len() <= READ_WINDOW);
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha");
        write_frame(&mut buf, b"");
        write_frame(&mut buf, b"gamma");
        let mut scan = FrameScanner::new(&buf);
        assert_eq!(scan.next(), Some(&b"alpha"[..]));
        assert_eq!(scan.next(), Some(&b""[..]));
        assert_eq!(scan.next(), Some(&b"gamma"[..]));
        assert_eq!(scan.next(), None);
        assert!(!scan.truncated());
    }

    #[test]
    fn torn_final_record_is_dropped() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"whole");
        write_frame(&mut buf, b"torn-away");
        buf.truncate(buf.len() - 4); // crash mid-write of the second
        let mut scan = FrameScanner::new(&buf);
        assert_eq!(scan.next(), Some(&b"whole"[..]));
        assert_eq!(scan.next(), None);
        assert!(scan.truncated());
    }

    #[test]
    fn flipped_bit_fails_the_crc() {
        let mut buf = frame(b"payload");
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let mut scan = FrameScanner::new(&buf);
        assert_eq!(scan.next(), None);
        assert!(scan.truncated());
    }

    #[test]
    fn absurd_length_is_corruption_not_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut scan = FrameScanner::new(&buf);
        assert_eq!(scan.next(), None);
        assert!(scan.truncated());
    }
}

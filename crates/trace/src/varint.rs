//! LEB128 variable-length integers and zigzag signed mapping.
//!
//! The trace format stores almost every field as an unsigned LEB128
//! varint: 7 payload bits per byte, continuation in the high bit,
//! little-endian. Address deltas, which can be negative, are first folded
//! through the zigzag mapping so that small magnitudes of either sign stay
//! small.

use crate::TraceError;

/// Appends `v` to `buf` as an unsigned LEB128 varint (1–10 bytes).
pub fn write_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Maps a signed value to unsigned so small magnitudes encode short:
/// `0, -1, 1, -2, 2, ... -> 0, 1, 2, 3, 4, ...`.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A bounds-checked read position over an encoded byte slice.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Current byte offset (for error reporting).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    #[cold]
    fn truncated(&self, what: &str) -> TraceError {
        TraceError::Malformed {
            offset: self.pos,
            reason: format!("truncated {what}"),
        }
    }

    /// Reads one raw byte.
    pub fn read_u8(&mut self, what: &str) -> Result<u8, TraceError> {
        let b = *self.buf.get(self.pos).ok_or_else(|| self.truncated(what))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8], TraceError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.truncated(what))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one unsigned LEB128 varint.
    #[inline]
    pub fn read_u64(&mut self, what: &str) -> Result<u64, TraceError> {
        // Most trace fields (small counters, op-sized address deltas) fit
        // in one byte.
        match self.buf.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.read_u64_multi(what),
        }
    }

    /// The general LEB128 loop, with the overflow check.
    fn read_u64_multi(&mut self, what: &str) -> Result<u64, TraceError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8(what)?;
            let payload = u64::from(byte & 0x7f);
            if shift >= 64 || (shift == 63 && payload > 1) {
                return Err(TraceError::Malformed {
                    offset: self.pos,
                    reason: format!("varint overflow in {what}"),
                });
            }
            v |= payload << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Consumes up to `max` consecutive one-byte varints of value `v` and
    /// returns how many it consumed. It stops at the first varint that is
    /// anything else (another value, a longer encoding of `v`, the end of
    /// the input) and leaves that one for [`read_u64`](Self::read_u64).
    pub(crate) fn skip_repeats(&mut self, v: u64, max: usize) -> usize {
        if v >= 0x80 {
            return 0;
        }
        let n = self.buf[self.pos..]
            .iter()
            .take(max)
            .take_while(|&&b| u64::from(b) == v)
            .count();
        self.pos += n;
        n
    }

    /// Reads one zigzag-folded signed varint.
    pub fn read_i64(&mut self, what: &str) -> Result<i64, TraceError> {
        Ok(unzigzag(self.read_u64(what)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip() {
        let probes = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &probes {
            write_u64(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for &v in &probes {
            assert_eq!(cur.read_u64("probe").unwrap(), v);
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn single_byte_for_small_values() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_u64(&mut buf, 128);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, -1, 1, -2, 2, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn truncated_varint_is_an_error() {
        let mut cur = Cursor::new(&[0x80]);
        assert!(matches!(
            cur.read_u64("x"),
            Err(TraceError::Malformed { .. })
        ));
    }

    #[test]
    fn overlong_varint_is_an_error() {
        // 11 continuation bytes can encode more than 64 bits.
        let buf = [0xff; 11];
        let mut cur = Cursor::new(&buf);
        assert!(matches!(
            cur.read_u64("x"),
            Err(TraceError::Malformed { .. })
        ));
    }

    #[test]
    fn bounds_checked_reads() {
        let mut cur = Cursor::new(&[1, 2, 3]);
        assert_eq!(cur.read_bytes(2, "x").unwrap(), &[1, 2]);
        assert!(cur.read_bytes(2, "x").is_err());
        assert_eq!(cur.read_u8("x").unwrap(), 3);
        assert!(cur.read_u8("x").is_err());
    }
}

//! Human-readable byte sizes.

use core::fmt;

use crate::{GIB, KIB, MIB};

/// A byte count with human-readable `Display` (`512 MiB`, `2.00 GiB`, …).
///
/// `ByteSize` is a thin wrapper used wherever sizes appear in reports and
/// logs, so that every experiment prints sizes the way the paper does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Constructs a size of `n` mebibytes.
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * MIB)
    }

    /// Returns the raw byte count.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Returns this size expressed in whole mebibytes (truncating).
    pub const fn as_mib(self) -> u64 {
        self.0 / MIB
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b == 0 {
            write!(f, "0 B")
        } else if b.is_multiple_of(GIB) {
            write!(f, "{} GiB", b / GIB)
        } else if b.is_multiple_of(MIB) {
            write!(f, "{} MiB", b / MIB)
        } else if b.is_multiple_of(KIB) {
            write!(f, "{} KiB", b / KIB)
        } else if b >= GIB {
            write!(f, "{:.2} GiB", b as f64 / GIB as f64)
        } else if b >= MIB {
            write!(f, "{:.2} MiB", b as f64 / MIB as f64)
        } else {
            write!(f, "{b} B")
        }
    }
}

impl core::ops::Add for ByteSize {
    type Output = ByteSize;

    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl core::ops::Sub for ByteSize {
    type Output = ByteSize;

    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl core::ops::Mul<u64> for ByteSize {
    type Output = ByteSize;

    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(ByteSize::mib(512).to_string(), "512 MiB");
        assert_eq!(ByteSize(2 * GIB).to_string(), "2 GiB");
        assert_eq!(ByteSize(4 * KIB).to_string(), "4 KiB");
        assert_eq!(ByteSize(0).to_string(), "0 B");
        assert_eq!(ByteSize(100).to_string(), "100 B");
        assert_eq!(ByteSize::mib(1536).to_string(), "1536 MiB");
    }

    #[test]
    fn display_fractional() {
        assert_eq!(ByteSize(MIB * 3 / 2).to_string(), "1536 KiB");
        assert_eq!(ByteSize(MIB + 1).to_string(), "1.00 MiB");
    }

    #[test]
    fn arithmetic() {
        assert_eq!(ByteSize::mib(1) + ByteSize::mib(2), ByteSize::mib(3));
        assert_eq!(ByteSize(GIB) - ByteSize::mib(512), ByteSize::mib(512));
        assert_eq!(ByteSize::mib(128) * 16, ByteSize(2 * GIB));
    }

    #[test]
    fn conversions() {
        assert_eq!(ByteSize(2 * GIB).as_mib(), 2048);
    }
}

//! KV-level errors.

use std::error::Error;
use std::fmt;

use vflash_ftl::FtlError;

/// Errors surfaced by the KV store.
///
/// Device end-of-life deserves first-class treatment: when the FTL flips to
/// sticky read-only mode ([`FtlError::ReadOnly`]), every KV write path (WAL
/// append, flush, compaction) reports [`KvError::ReadOnly`] instead of a
/// generic failure, so an application can distinguish "the device is worn out,
/// reads still work" from corruption or misconfiguration.
#[derive(Debug)]
pub enum KvError {
    /// The device entered read-only end-of-life mode: writes are refused for
    /// good, reads keep serving.
    ReadOnly,
    /// The store ran out of logical flash capacity (no free extents, or the
    /// FTL reported [`FtlError::OutOfSpace`]).
    OutOfSpace,
    /// On-flash data failed validation (bad magic, checksum mismatch,
    /// truncated structure). Carries a human-readable description.
    Corruption(String),
    /// A put or delete whose key or value does not fit the on-flash length
    /// fields (`u16` key length, `u32` value length). Nothing was written.
    EntryTooLarge {
        /// Length of the rejected key.
        key_bytes: usize,
        /// Length of the rejected value (0 for a delete).
        value_bytes: usize,
    },
    /// Any other FTL failure, passed through.
    Ftl(FtlError),
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::ReadOnly => write!(f, "device is in read-only end-of-life mode"),
            KvError::OutOfSpace => write!(f, "out of flash capacity"),
            KvError::Corruption(reason) => write!(f, "on-flash corruption: {reason}"),
            KvError::EntryTooLarge { key_bytes, value_bytes } => write!(
                f,
                "entry too large: key of {key_bytes} bytes (limit {}), \
                 value of {value_bytes} bytes (limit {})",
                u16::MAX,
                u32::MAX
            ),
            KvError::Ftl(error) => write!(f, "FTL error: {error}"),
        }
    }
}

impl Error for KvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            KvError::Ftl(error) => Some(error),
            _ => None,
        }
    }
}

impl From<FtlError> for KvError {
    fn from(error: FtlError) -> Self {
        match error {
            FtlError::ReadOnly => KvError::ReadOnly,
            FtlError::OutOfSpace => KvError::OutOfSpace,
            other => KvError::Ftl(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_only_and_out_of_space_map_to_first_class_variants() {
        assert!(matches!(KvError::from(FtlError::ReadOnly), KvError::ReadOnly));
        assert!(matches!(KvError::from(FtlError::OutOfSpace), KvError::OutOfSpace));
        assert!(matches!(
            KvError::from(FtlError::UnmappedRead { lpn: vflash_ftl::Lpn(3) }),
            KvError::Ftl(_)
        ));
    }

    #[test]
    fn display_is_informative() {
        assert!(KvError::ReadOnly.to_string().contains("read-only"));
        assert!(KvError::Corruption("bad magic".into()).to_string().contains("bad magic"));
        let too_large = KvError::EntryTooLarge { key_bytes: 70_000, value_bytes: 3 };
        assert!(too_large.to_string().contains("70000 bytes (limit 65535)"));
    }
}

//! File identifiers and the file-specific attributes stored in the FIT.

use rhodos_disk_service::codec::{DecodeError, Decoder, Encoder};

/// A file's *system name* — the identifier used internally by the file
/// agent, transaction agent and file service (§3). Attributed (human)
/// names are resolved to system names by the naming service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "file#{}", self.0)
    }
}

/// Which semantics govern operations on the file right now: "at any moment
/// a file can be used either as a basic file ... or as a transaction file"
/// (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServiceType {
    /// Basic file service semantics (no concurrency control or recovery).
    #[default]
    Basic,
    /// Transaction service semantics.
    Transaction,
}

/// Granularity at which the transaction service locks this file's data
/// (§6.1): record, page or whole file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LockLevel {
    /// Lock individual byte ranges ("as fine as a single byte").
    Record,
    /// Lock pages (one block).
    #[default]
    Page,
    /// Lock the whole file.
    File,
}

/// The file-specific attributes the paper lists for the FIT (§5): size,
/// creation time, last read access, reference count, service type, locking
/// level and extra attribute space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileAttributes {
    /// File size in bytes.
    pub size: u64,
    /// Creation time, virtual microseconds.
    pub created_us: u64,
    /// Last read access, virtual microseconds. Best-effort, like
    /// `relatime`: a read stamps the resident FIT only, and the stamp
    /// reaches the platter with the next write of the FIT that a
    /// structural change (size, descriptors, lock level) causes. A crash
    /// or an eviction before that loses it.
    pub last_read_us: u64,
    /// "Number of instances a file is opened simultaneously." Soft state:
    /// `get_attribute` fills it from the file service's open table; the
    /// encoded form keeps the slot, written as zero and ignored on load.
    pub ref_count: u32,
    /// Basic or transaction semantics currently in force.
    pub service_type: ServiceType,
    /// Locking level for transactional use.
    pub lock_level: LockLevel,
    /// "Amount of extra space needed for storing the file-specific
    /// attributes" — reserved bytes for application attributes.
    pub extra_space: u32,
}

impl FileAttributes {
    /// Attributes of a freshly created, empty file.
    pub fn new(created_us: u64, service_type: ServiceType) -> Self {
        Self {
            size: 0,
            created_us,
            last_read_us: created_us,
            ref_count: 0,
            service_type,
            lock_level: LockLevel::default(),
            extra_space: 0,
        }
    }

    /// Serialises the attributes (fixed 34 bytes).
    pub fn encode(&self, e: &mut Encoder) {
        e.u64(self.size)
            .u64(self.created_us)
            .u64(self.last_read_us)
            .u32(0) // the open count's slot
            .u8(match self.service_type {
                ServiceType::Basic => 0,
                ServiceType::Transaction => 1,
            })
            .u8(match self.lock_level {
                LockLevel::Record => 0,
                LockLevel::Page => 1,
                LockLevel::File => 2,
            })
            .u32(self.extra_space);
    }

    /// Deserialises attributes written by [`Self::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] on truncation or an unknown enum tag.
    pub fn decode(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let size = d.u64()?;
        let created_us = d.u64()?;
        let last_read_us = d.u64()?;
        d.u32()?; // the open count's slot
        let service_type = match d.u8()? {
            0 => ServiceType::Basic,
            1 => ServiceType::Transaction,
            _ => return Err(DecodeError),
        };
        let lock_level = match d.u8()? {
            0 => LockLevel::Record,
            1 => LockLevel::Page,
            2 => LockLevel::File,
            _ => return Err(DecodeError),
        };
        let extra_space = d.u32()?;
        Ok(Self {
            size,
            created_us,
            last_read_us,
            ref_count: 0,
            service_type,
            lock_level,
            extra_space,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrs_round_trip() {
        let mut a = FileAttributes::new(42, ServiceType::Transaction);
        a.size = 1 << 30;
        a.ref_count = 3;
        a.lock_level = LockLevel::Record;
        a.extra_space = 128;
        let mut e = Encoder::new();
        a.encode(&mut e);
        let buf = e.finish();
        assert_eq!(buf.len(), 34);
        let mut d = Decoder::new(&buf);
        // Everything round-trips but the open count, which is not stored.
        a.ref_count = 0;
        assert_eq!(FileAttributes::decode(&mut d).unwrap(), a);
        assert!(d.is_empty());
    }

    #[test]
    fn bad_tag_rejected() {
        let mut e = Encoder::new();
        FileAttributes::new(0, ServiceType::Basic).encode(&mut e);
        let mut buf = e.finish();
        buf[28] = 9; // corrupt the service-type tag
        let mut d = Decoder::new(&buf);
        assert!(FileAttributes::decode(&mut d).is_err());
    }

    #[test]
    fn display_of_file_id() {
        assert_eq!(FileId(7).to_string(), "file#7");
    }
}

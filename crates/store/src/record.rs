//! The fixed-size binary observation record and its CRC framing.
//!
//! One record is one measured operating point: which server architecture
//! handled the workload, how many closed-loop clients were attached, the
//! buy percentage of the mix, the mean response time observed, the
//! throughput (when measured) and a caller-supplied timestamp. Records
//! are exactly [`RECORD_BYTES`] long so a log segment is a flat array —
//! offset arithmetic replaces framing, and a torn tail is detectable as
//! `len % RECORD_BYTES != 0` even before the CRC check runs.
//!
//! Layout (little-endian):
//!
//! ```text
//! offset  size  field
//!      0    24  server name, UTF-8, zero-padded
//!     24     4  clients (u32)
//!     28     4  buy percentage (f32)
//!     32     8  mean response time, ms (f64)
//!     40     8  throughput, req/s (f64; 0 = not measured)
//!     48     8  timestamp, µs since the UNIX epoch (u64)
//!     56     4  reserved (must be 0)
//!     60     4  CRC-32 (IEEE) of bytes 0..60
//! ```

use perfpred_core::frame::crc32;
use std::fmt;

/// Size of one encoded observation record.
pub const RECORD_BYTES: usize = 64;
/// Bytes reserved for the server name (zero-padded UTF-8).
pub const SERVER_NAME_BYTES: usize = 24;

/// Errors raised by the observation store.
#[derive(Debug)]
pub enum StoreError {
    /// An observation failed validation before anything was written.
    InvalidObservation(String),
    /// The underlying log I/O failed.
    Io(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::InvalidObservation(msg) => write!(f, "invalid observation: {msg}"),
            StoreError::Io(e) => write!(f, "observation log I/O: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// One measured `(server, client count, mean response time)` sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Server architecture name (≤ [`SERVER_NAME_BYTES`] UTF-8 bytes).
    pub server: String,
    /// Closed-loop clients attached when the sample was taken.
    pub clients: u32,
    /// Buy percentage of the workload mix, `[0, 100]`.
    pub buy_pct: f32,
    /// Measured mean response time, ms.
    pub mrt_ms: f64,
    /// Measured throughput, req/s; `0.0` when not measured.
    pub throughput_rps: f64,
    /// Sample timestamp, microseconds since the UNIX epoch.
    pub timestamp_us: u64,
}

impl Observation {
    /// A typical-workload (0 % buy) observation without throughput.
    pub fn typical(server: impl Into<String>, clients: u32, mrt_ms: f64) -> Observation {
        Observation {
            server: server.into(),
            clients,
            buy_pct: 0.0,
            mrt_ms,
            throughput_rps: 0.0,
            timestamp_us: 0,
        }
    }

    /// Validates the fields the binary layout (and the refitter) rely on.
    pub fn validate(&self) -> Result<(), StoreError> {
        let err = |msg: String| Err(StoreError::InvalidObservation(msg));
        if self.server.is_empty() {
            return err("server name is empty".into());
        }
        if self.server.len() > SERVER_NAME_BYTES {
            return err(format!(
                "server name '{}' exceeds {SERVER_NAME_BYTES} bytes",
                self.server
            ));
        }
        if self.server.as_bytes().contains(&0) {
            return err("server name contains a NUL byte".into());
        }
        if self.clients == 0 {
            return err("clients must be at least 1".into());
        }
        if !self.mrt_ms.is_finite() || self.mrt_ms <= 0.0 {
            return err(format!(
                "mrt_ms must be finite and positive, got {}",
                self.mrt_ms
            ));
        }
        if !self.throughput_rps.is_finite() || self.throughput_rps < 0.0 {
            return err(format!(
                "throughput_rps must be finite and non-negative, got {}",
                self.throughput_rps
            ));
        }
        if !self.buy_pct.is_finite() || !(0.0..=100.0).contains(&self.buy_pct) {
            return err(format!("buy_pct must be in [0, 100], got {}", self.buy_pct));
        }
        Ok(())
    }

    /// Encodes into the fixed binary layout, CRC included.
    pub fn encode(&self) -> Result<[u8; RECORD_BYTES], StoreError> {
        self.validate()?;
        let mut buf = [0u8; RECORD_BYTES];
        buf[..self.server.len()].copy_from_slice(self.server.as_bytes());
        buf[24..28].copy_from_slice(&self.clients.to_le_bytes());
        buf[28..32].copy_from_slice(&self.buy_pct.to_le_bytes());
        buf[32..40].copy_from_slice(&self.mrt_ms.to_le_bytes());
        buf[40..48].copy_from_slice(&self.throughput_rps.to_le_bytes());
        buf[48..56].copy_from_slice(&self.timestamp_us.to_le_bytes());
        // bytes 56..60 reserved, zero
        let crc = crc32(&buf[..RECORD_BYTES - 4]);
        buf[60..].copy_from_slice(&crc.to_le_bytes());
        Ok(buf)
    }

    /// Decodes one record, verifying the CRC. `None` means the bytes are
    /// not a valid record (torn write, corruption, or preallocated zeros)
    /// — replay treats that as the end of the log.
    pub fn decode(buf: &[u8; RECORD_BYTES]) -> Option<Observation> {
        let stored = u32::from_le_bytes(buf[60..].try_into().unwrap());
        if crc32(&buf[..RECORD_BYTES - 4]) != stored {
            return None;
        }
        let name_len = buf[..SERVER_NAME_BYTES]
            .iter()
            .position(|&b| b == 0)
            .unwrap_or(SERVER_NAME_BYTES);
        let server = std::str::from_utf8(&buf[..name_len]).ok()?.to_string();
        let obs = Observation {
            server,
            clients: u32::from_le_bytes(buf[24..28].try_into().unwrap()),
            buy_pct: f32::from_le_bytes(buf[28..32].try_into().unwrap()),
            mrt_ms: f64::from_le_bytes(buf[32..40].try_into().unwrap()),
            throughput_rps: f64::from_le_bytes(buf[40..48].try_into().unwrap()),
            timestamp_us: u64::from_le_bytes(buf[48..56].try_into().unwrap()),
        };
        obs.validate().ok()?;
        Some(obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Observation {
        Observation {
            server: "AppServF".into(),
            clients: 420,
            buy_pct: 12.5,
            mrt_ms: 96.25,
            throughput_rps: 59.8,
            timestamp_us: 1_722_000_000_000_000,
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let obs = sample();
        let buf = obs.encode().unwrap();
        let back = Observation::decode(&buf).unwrap();
        assert_eq!(back.server, obs.server);
        assert_eq!(back.clients, obs.clients);
        assert_eq!(back.buy_pct.to_bits(), obs.buy_pct.to_bits());
        assert_eq!(back.mrt_ms.to_bits(), obs.mrt_ms.to_bits());
        assert_eq!(back.throughput_rps.to_bits(), obs.throughput_rps.to_bits());
        assert_eq!(back.timestamp_us, obs.timestamp_us);
    }

    #[test]
    fn any_flipped_bit_fails_the_crc() {
        let buf = sample().encode().unwrap();
        for byte in 0..RECORD_BYTES {
            let mut corrupt = buf;
            corrupt[byte] ^= 0x10;
            assert!(
                Observation::decode(&corrupt).is_none(),
                "flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn zero_filled_block_is_not_a_record() {
        assert!(Observation::decode(&[0u8; RECORD_BYTES]).is_none());
    }

    #[test]
    fn validation_rejects_malformed_observations() {
        let ok = sample();
        assert!(ok.validate().is_ok());
        let mut o = sample();
        o.server = String::new();
        assert!(o.validate().is_err());
        let mut o = sample();
        o.server = "x".repeat(SERVER_NAME_BYTES + 1);
        assert!(o.encode().is_err());
        let mut o = sample();
        o.clients = 0;
        assert!(o.validate().is_err());
        let mut o = sample();
        o.mrt_ms = f64::NAN;
        assert!(o.validate().is_err());
        let mut o = sample();
        o.mrt_ms = -5.0;
        assert!(o.validate().is_err());
        let mut o = sample();
        o.throughput_rps = -1.0;
        assert!(o.validate().is_err());
        let mut o = sample();
        o.buy_pct = 120.0;
        assert!(o.validate().is_err());
    }
}

//! Shared by the byte-identity tests: FNV-1a-64 over a buffer, and a
//! sink that hashes a stream without keeping it.
#![allow(dead_code)] // each test crate uses its own subset

use std::io::Write;
use std::sync::{Arc, Mutex};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// Hashes and counts what the recorder streams, keeping nothing.
#[derive(Clone)]
pub struct HashSink(Arc<Mutex<(u64, u64)>>);

impl HashSink {
    pub fn new() -> Self {
        Self(Arc::new(Mutex::new((FNV_OFFSET, 0))))
    }

    /// (FNV-1a-64 of everything written, its length in bytes).
    pub fn digest(&self) -> (u64, u64) {
        *self.0.lock().expect("sink lock")
    }
}

impl Write for HashSink {
    fn write(&mut self, chunk: &[u8]) -> std::io::Result<usize> {
        let mut state = self.0.lock().expect("sink lock");
        for &b in chunk {
            state.0 = (state.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        state.1 += chunk.len() as u64;
        Ok(chunk.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

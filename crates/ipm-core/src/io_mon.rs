//! The monitored file-I/O API.
//!
//! IPM's original domains are MPI and file I/O (paper §II); the hash-table
//! example in Fig. 1 even uses `fopen` as an event. [`IpmIo`] wraps an
//! [`IoApi`] implementation so every stdio-like call is timed and its byte
//! count recorded — completing the "whole event inventory" picture next to
//! the CUDA and MPI monitors.

use crate::facade::FacadeCore;
use crate::monitor::Ipm;
use ipm_interpose::site;
use ipm_sim_core::fsio::{FileHandle, FsResult, IoApi, OpenMode};
use std::sync::Arc;

/// The monitored file-I/O facade.
pub struct IpmIo<F: IoApi> {
    core: FacadeCore,
    inner: F,
}

impl<F: IoApi> IpmIo<F> {
    /// Install monitoring around `inner`.
    pub fn new(ipm: Arc<Ipm>, inner: F) -> Self {
        Self {
            core: FacadeCore::new(ipm, None),
            inner,
        }
    }

    /// The wrapped API.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The monitoring context.
    pub fn ipm(&self) -> &Arc<Ipm> {
        self.core.ipm()
    }
}

impl<F: IoApi> IoApi for IpmIo<F> {
    fn fopen(&self, path: &str, mode: OpenMode) -> FsResult<FileHandle> {
        self.core
            .wrapped(site!("fopen"), 0, || self.inner.fopen(path, mode))
    }

    fn fread(&self, h: FileHandle, buf: &mut [u8]) -> FsResult<usize> {
        let cap = buf.len() as u64;
        self.core
            .wrapped(site!("fread"), cap, || self.inner.fread(h, buf))
    }

    fn fwrite(&self, h: FileHandle, data: &[u8]) -> FsResult<usize> {
        self.core.wrapped(site!("fwrite"), data.len() as u64, || {
            self.inner.fwrite(h, data)
        })
    }

    fn fclose(&self, h: FileHandle) -> FsResult<()> {
        self.core
            .wrapped(site!("fclose"), 0, || self.inner.fclose(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::IpmConfig;
    use ipm_sim_core::fsio::{FsConfig, RankFs, SimFs};
    use ipm_sim_core::SimClock;

    fn stack() -> (Arc<Ipm>, IpmIo<RankFs>) {
        let clock = SimClock::new();
        let ipm = Ipm::new(clock.clone(), IpmConfig::default());
        let fs = SimFs::new(FsConfig::default());
        (ipm.clone(), IpmIo::new(ipm, RankFs { fs, clock }))
    }

    #[test]
    fn io_calls_land_in_the_hash_table_with_bytes() {
        let (ipm, io) = stack();
        let h = io.fopen("/scratch/out.dat", OpenMode::Write).unwrap();
        io.fwrite(h, &vec![7u8; 1 << 20]).unwrap();
        io.fclose(h).unwrap();
        let h = io.fopen("/scratch/out.dat", OpenMode::Read).unwrap();
        let mut buf = vec![0u8; 4096];
        io.fread(h, &mut buf).unwrap();
        io.fclose(h).unwrap();

        let p = ipm.profile();
        assert_eq!(p.count_of("fopen"), 2);
        assert_eq!(p.count_of("fclose"), 2);
        let fwrite = p.entries.iter().find(|e| e.name == "fwrite").unwrap();
        assert_eq!(fwrite.bytes, 1 << 20);
        // the 1 MiB write at 250 MB/s dominates this little profile
        assert!(p.time_of("fwrite") > p.time_of("fopen"));
        // and the data is really there
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn errors_pass_through_and_are_still_timed() {
        let (ipm, io) = stack();
        assert!(io.fopen("missing", OpenMode::Read).is_err());
        assert_eq!(ipm.profile().count_of("fopen"), 1);
    }

    #[test]
    fn io_is_classified_as_its_own_family() {
        use crate::profile::{classify, EventFamily};
        assert_eq!(classify("fopen"), EventFamily::Other);
        assert_eq!(classify("fwrite"), EventFamily::Other);
        // (IPM groups I/O under its own section; our banner shows them in
        // the flat table — family "Other" keeps them out of %comm/GPU math)
    }
}

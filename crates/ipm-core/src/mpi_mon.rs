//! The monitored MPI API — IPM's PMPI-style interposition layer.
//!
//! IPM predates this paper as an MPI profiler; the CUDA work of the paper
//! plugs into the same hash table. [`IpmMpi`] wraps a bare
//! [`Rank`](ipm_mpi_sim::Rank) (or any other [`MpiApi`]) so each call is
//! timed and its message size recorded.

use crate::facade::FacadeCore;
use crate::monitor::Ipm;
use ipm_interpose::site;
use ipm_mpi_sim::{MpiApi, MpiResult, ReduceOp, Request};
use std::sync::Arc;

/// The monitored MPI facade.
pub struct IpmMpi<M: MpiApi> {
    core: FacadeCore,
    inner: M,
}

impl<M: MpiApi> IpmMpi<M> {
    /// Install monitoring around `inner`. Attaching to the world is the
    /// rank's `MPI_Init` return: the first instant every rank has passed
    /// through, so it pins the cluster clock-alignment epoch trace
    /// exporters line lanes up on (first call wins if the context is
    /// shared by several facades).
    pub fn new(ipm: Arc<Ipm>, inner: M) -> Self {
        ipm.mark_epoch();
        Self {
            core: FacadeCore::new(ipm, None),
            inner,
        }
    }

    /// The wrapped API.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The monitoring context.
    pub fn ipm(&self) -> &Arc<Ipm> {
        self.core.ipm()
    }
}

impl<M: MpiApi> MpiApi for IpmMpi<M> {
    fn mpi_comm_rank(&self) -> usize {
        // rank/size queries are not timed by IPM (no useful signal)
        self.inner.mpi_comm_rank()
    }

    fn mpi_comm_size(&self) -> usize {
        self.inner.mpi_comm_size()
    }

    fn mpi_send(&self, dest: usize, tag: i32, data: &[u8]) -> MpiResult<()> {
        self.core.wrapped(site!("MPI_Send"), data.len() as u64, || {
            self.inner.mpi_send(dest, tag, data)
        })
    }

    fn mpi_recv(&self, src: Option<usize>, tag: i32) -> MpiResult<(usize, Vec<u8>)> {
        self.core.wrapped_sized(
            site!("MPI_Recv"),
            || self.inner.mpi_recv(src, tag),
            |r| r.as_ref().map_or(0, |(_, data)| data.len() as u64),
        )
    }

    fn mpi_isend(&self, dest: usize, tag: i32, data: &[u8]) -> MpiResult<Request> {
        self.core
            .wrapped(site!("MPI_Isend"), data.len() as u64, || {
                self.inner.mpi_isend(dest, tag, data)
            })
    }

    fn mpi_irecv(&self, src: Option<usize>, tag: i32) -> MpiResult<Request> {
        self.core
            .wrapped(site!("MPI_Irecv"), 0, || self.inner.mpi_irecv(src, tag))
    }

    fn mpi_wait(&self, req: &mut Request) -> MpiResult<Option<(usize, Vec<u8>)>> {
        // completing a posted receive delivers the payload here, so this is
        // where the bytes MPI_Irecv could not know get attributed
        self.core.wrapped_sized(
            site!("MPI_Wait"),
            || self.inner.mpi_wait(req),
            |r| match r {
                Ok(Some((_, data))) => data.len() as u64,
                _ => 0,
            },
        )
    }

    fn mpi_barrier(&self) -> MpiResult<()> {
        self.core
            .wrapped(site!("MPI_Barrier"), 0, || self.inner.mpi_barrier())
    }

    fn mpi_bcast(&self, root: usize, data: Vec<u8>) -> MpiResult<Vec<u8>> {
        let bytes = data.len() as u64;
        self.core.wrapped(site!("MPI_Bcast"), bytes, || {
            self.inner.mpi_bcast(root, data)
        })
    }

    fn mpi_reduce_f64(
        &self,
        root: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> MpiResult<Option<Vec<f64>>> {
        self.core
            .wrapped(site!("MPI_Reduce"), 8 * data.len() as u64, || {
                self.inner.mpi_reduce_f64(root, data, op)
            })
    }

    fn mpi_allreduce_f64(&self, data: &[f64], op: ReduceOp) -> MpiResult<Vec<f64>> {
        self.core
            .wrapped(site!("MPI_Allreduce"), 8 * data.len() as u64, || {
                self.inner.mpi_allreduce_f64(data, op)
            })
    }

    fn mpi_gather(&self, root: usize, data: &[u8]) -> MpiResult<Option<Vec<Vec<u8>>>> {
        self.core
            .wrapped(site!("MPI_Gather"), data.len() as u64, || {
                self.inner.mpi_gather(root, data)
            })
    }

    fn mpi_allgather(&self, data: &[u8]) -> MpiResult<Vec<Vec<u8>>> {
        self.core
            .wrapped(site!("MPI_Allgather"), data.len() as u64, || {
                self.inner.mpi_allgather(data)
            })
    }

    fn mpi_alltoall(&self, data: &[u8]) -> MpiResult<Vec<u8>> {
        self.core
            .wrapped(site!("MPI_Alltoall"), data.len() as u64, || {
                self.inner.mpi_alltoall(data)
            })
    }

    fn mpi_wtime(&self) -> f64 {
        self.inner.mpi_wtime()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::IpmConfig;
    use ipm_mpi_sim::World;

    #[test]
    fn mpi_calls_are_timed_and_sized() {
        let profiles = World::run(2, |rank| {
            let ipm = Ipm::new(rank.clock().clone(), IpmConfig::default());
            ipm.set_metadata(rank.rank(), rank.size(), "dirac00", "test");
            let mpi = IpmMpi::new(ipm.clone(), rank);
            if mpi.mpi_comm_rank() == 0 {
                mpi.mpi_send(1, 0, &vec![0u8; 4096]).unwrap();
            } else {
                mpi.mpi_recv(Some(0), 0).unwrap();
            }
            mpi.mpi_barrier().unwrap();
            ipm.profile()
        });
        let p0 = &profiles[0];
        assert_eq!(p0.count_of("MPI_Send"), 1);
        let send = p0.entries.iter().find(|e| e.name == "MPI_Send").unwrap();
        assert_eq!(send.bytes, 4096);
        assert_eq!(profiles[1].count_of("MPI_Recv"), 1);
        let recv = profiles[1]
            .entries
            .iter()
            .find(|e| e.name == "MPI_Recv")
            .unwrap();
        assert_eq!(recv.bytes, 4096, "recv payload size measured from result");
        for p in &profiles {
            assert_eq!(p.count_of("MPI_Barrier"), 1);
            assert!(p.comm_fraction() > 0.0);
        }
    }

    #[test]
    fn recv_wait_time_is_attributed_to_recv() {
        let profiles = World::run(2, |rank| {
            let ipm = Ipm::new(rank.clock().clone(), IpmConfig::default());
            let mpi = IpmMpi::new(ipm.clone(), rank);
            if mpi.mpi_comm_rank() == 0 {
                mpi.inner().compute(0.5); // sender is late
                mpi.mpi_send(1, 0, b"late").unwrap();
            } else {
                mpi.mpi_recv(Some(0), 0).unwrap();
            }
            ipm.profile()
        });
        let recv = profiles[1].time_of("MPI_Recv");
        assert!(recv >= 0.5, "recv wait not captured: {recv}");
    }

    #[test]
    fn collectives_record_payload_bytes() {
        let profiles = World::run(3, |rank| {
            let ipm = Ipm::new(rank.clock().clone(), IpmConfig::default());
            let mpi = IpmMpi::new(ipm.clone(), rank);
            mpi.mpi_allreduce_f64(&[0.0; 128], ReduceOp::Sum).unwrap();
            mpi.mpi_gather(0, &[0u8; 64]).unwrap();
            ipm.profile()
        });
        for p in &profiles {
            let ar = p
                .entries
                .iter()
                .find(|e| e.name == "MPI_Allreduce")
                .unwrap();
            assert_eq!(ar.bytes, 1024);
            let g = p.entries.iter().find(|e| e.name == "MPI_Gather").unwrap();
            assert_eq!(g.bytes, 64);
        }
    }

    #[test]
    fn nonblocking_pair_roundtrips_through_monitor() {
        let ok = World::run(2, |rank| {
            let ipm = Ipm::new(rank.clock().clone(), IpmConfig::default());
            let mpi = IpmMpi::new(ipm.clone(), rank);
            if mpi.mpi_comm_rank() == 0 {
                let mut req = mpi.mpi_isend(1, 9, b"x").unwrap();
                mpi.mpi_wait(&mut req).unwrap();
                ipm.profile().count_of("MPI_Isend") == 1
            } else {
                let mut req = mpi.mpi_irecv(Some(0), 9).unwrap();
                let got = mpi.mpi_wait(&mut req).unwrap();
                got.unwrap().1 == b"x" && ipm.profile().count_of("MPI_Wait") == 1
            }
        });
        assert!(ok.iter().all(|&b| b));
    }
}

//! The benchmark harness for the Flick reproduction.
//!
//! * [`generated`] — stub modules emitted by the Flick compiler itself
//!   (regenerate with `cargo run -p flick-bench --bin regen_stubs`);
//! * [`data`] — workload builders producing values in each generated
//!   module's presented types, mirroring `flick_baselines::types::workload`
//!   so every system marshals identical data;
//! * [`endtoend`] — the measured-marshal + modeled-wire round-trip
//!   throughput computation behind Figures 4–7;
//! * [`hostcal`] — host memory-bandwidth calibration for scaling the
//!   1997 network models (see `flick_transport::netmodel`);
//! * [`allocwatch`] — peak-tracking global allocator shared by the
//!   fuzz allocation bound and the zero-allocation steady-state test;
//! * [`fanin`] — the connection-fabric fan-in scenario: thousands of
//!   pipelined simulated clients against one fabric-hosted server,
//!   with a single-connection baseline (`BENCH_fabric.json`);
//! * [`oracle`] — the endpoint-composition oracle the generated
//!   gateways are checked against (decode with one stub module,
//!   re-encode with the other).
//!
//! Figure/table binaries live in `src/bin/`; micro-benchmarks (built
//! on [`microbench`]) in `benches/`.

pub mod allocwatch;
pub mod bin_common;
pub mod data;
pub mod endtoend;
pub mod fanin;
pub mod figures;
pub mod generated;
pub mod hostcal;
pub mod microbench;
pub mod oracle;
pub mod regen;

/// The §4 message sizes for the int/rect workloads: 64 B – 4 MB.
#[must_use]
pub fn paper_sizes_ints() -> Vec<usize> {
    // Payload byte counts; element count = bytes / 4.
    (6..=22).map(|p| 1usize << p).collect()
}

/// The §4 message sizes for the dirent workload: 256 B – 512 KB.
#[must_use]
pub fn paper_sizes_dirents() -> Vec<usize> {
    (8..=19).map(|p| 1usize << p).collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn size_ranges_match_paper() {
        let ints = super::paper_sizes_ints();
        assert_eq!(*ints.first().unwrap(), 64);
        assert_eq!(*ints.last().unwrap(), 4 << 20);
        let dirents = super::paper_sizes_dirents();
        assert_eq!(*dirents.first().unwrap(), 256);
        assert_eq!(*dirents.last().unwrap(), 512 << 10);
    }
}

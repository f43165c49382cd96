//! §4.2 ablation: two-phase multiple-bitrate insertion.
//!
//! "Because the originating cub overlaps the disk I/O and communication
//! between cubs, there will almost always be time for the communication
//! with the succeeding cub without having to increase the scheduling lead
//! value."
//!
//! The five `MbrSystem` rings (four latency models, then the LAN ring on
//! a second sequence of rates) are independent; the body lives in
//! `tiger_bench::fleet` and shards them across `TIGER_FLEET_THREADS`
//! workers (output is identical at any thread count).

use tiger_bench::fleet::{mbr_report, threads_from_env, Scale};
use tiger_bench::header;

fn main() {
    header(
        "Ablation: two-phase multiple-bitrate insertion (§4.2)",
        "the reserve round trip overlaps the speculative first-block disk \
         read, so confirmation latency is almost always hidden",
    );
    let report = mbr_report(Scale::Full, threads_from_env());
    print!("{}", report.output);
}

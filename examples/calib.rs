//! Workload calibration: measured basic-block size, taken rate and stream
//! length of every benchmark clone, next to its Table 1 target, for three
//! seeds.
//!
//! ```bash
//! cargo run --release --example calib
//! ```

use smtfetch::isa::Addr;
use smtfetch::workloads::{BenchmarkProfile, ProgramBuilder, Walker};

fn main() {
    for p in BenchmarkProfile::all() {
        print!("{:10} target {:5.2} |", p.name, p.avg_bb_size);
        for seed in [1u64, 4, 9] {
            let prog = ProgramBuilder::new(p.clone())
                .base(Addr::new(0x40_0000))
                .seed(seed)
                .build();
            let mut w = Walker::new(prog, 0);
            let _ = w.measure(20_000);
            let s = w.measure(300_000);
            print!(
                " {:5.2}/tk{:4.2}/st{:5.1}",
                s.avg_bb_size(),
                s.taken_rate(),
                s.avg_stream_len()
            );
        }
        println!();
    }
}

//! Benchmark and experiment harness for the DRCom/DRCR reproduction.
//!
//! * [`harness`] — runs the paper's Table 1 latency experiment (pure RTAI
//!   vs HRC, light vs stress) and formats the results.
//! * `cargo run -p bench --bin table1` — regenerates Table 1 alongside the
//!   paper's published numbers.
//! * `cargo run -p bench --bin dynamicity` — replays the §4.3 adaptation
//!   scenario and prints the DRCR's decision log.
//! * `cargo bench -p bench` — timing benches (driven by the in-repo
//!   [`microbench`] loop): the Table 1 cells, service registry and LDAP
//!   throughput, DRCR resolve-loop scalability, XML descriptor parsing,
//!   and the admission/bridge ablations.

pub mod harness;
pub mod microbench;
pub mod timing;

pub use harness::{
    format_table1, run_table1, run_table1_config, table1_avedev, ImplKind, Table1Config, Table1Row,
    PAPER_TABLE1,
};

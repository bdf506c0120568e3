//! Cross-SoC collaborative inference: width-partitioned tensor parallelism
//! over the 1 GbE fabric, with and without compute/communication
//! pipelining (§5.3, Fig. 13) — and what it would take to make it scale.
//!
//! Run with: `cargo run -p socc-examples --bin collaborative_inference`

use socc_dl::parallel::{sweep, tensor_parallel, CollabConfig};
use socc_dl::ModelId;
use socc_sim::report::{fnum, pct, Table};

fn main() {
    for model in [ModelId::ResNet50, ModelId::ResNet152] {
        println!("== {} ==", model.label());
        let graph = model.graph();
        println!(
            "{} layers, {:.1} GFLOPs, {} halo sync points, {:.0} kB halo per boundary",
            graph.len(),
            graph.gflops(),
            graph.halo_sync_points(),
            graph.halo_bytes_per_boundary() / 1e3
        );
        for pipelined in [false, true] {
            let label = if pipelined { "pipelined" } else { "sequential" };
            let mut t = Table::new(["SoCs", "compute ms", "comm ms", "total ms", "comm share"])
                .with_title(format!("{} tensor parallelism ({label})", model.label()));
            let reports = sweep(model, 5, pipelined, 1.0);
            for r in &reports {
                t.row([
                    format!("{}", r.socs),
                    fnum(r.compute.as_millis_f64(), 1),
                    fnum(r.comm.as_millis_f64(), 1),
                    fnum(r.total.as_millis_f64(), 1),
                    pct(r.comm_share()),
                ]);
            }
            println!("{}", t.render());
        }
    }

    // What-if: the paper's §8 suggests faster inter-SoC links. Show the
    // knee by scaling the comm share analytically.
    let r = tensor_parallel(
        ModelId::ResNet50,
        CollabConfig {
            socs: 5,
            pipelined: false,
            link_gbps: 1.0,
        },
    );
    println!(
        "at 5 SoCs, communication is {} of latency — the paper measured 41.5%.\n\
         With pipelining it drops to {} (paper: 22.9%).\n\
         The residual is dominated by per-layer barrier RTTs ({} sync points x 0.44 ms),\n\
         which is why §8 calls for both faster links and coarser tensor partitioning.",
        pct(r.comm_share()),
        pct(tensor_parallel(
            ModelId::ResNet50,
            CollabConfig {
                socs: 5,
                pipelined: true,
                link_gbps: 1.0,
            }
        )
        .comm_share()),
        ModelId::ResNet50.graph().halo_sync_points(),
    );
}

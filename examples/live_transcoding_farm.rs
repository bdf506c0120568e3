//! Live transcoding farm: run a diurnal day of live-stream sessions on the
//! cluster and compare its energy proportionality against the traditional
//! edge server (the paper's §4.1 / Fig. 7 story at workload scale).
//!
//! Run with: `cargo run -p socc-examples --bin live_transcoding_farm`

use std::collections::BTreeMap;

use socc_cluster::orchestrator::{Orchestrator, OrchestratorConfig};
use socc_cluster::workload::WorkloadSpec;
use socc_cluster::TraditionalServer;
use socc_hw::power::Utilization;
use socc_sim::rng::SimRng;
use socc_sim::time::{SimDuration, SimTime};
use socc_workloads::jobs::live_session_stream;

fn main() {
    let mut rng = SimRng::seed(2024);
    let day = SimDuration::from_hours(24);
    let sessions = live_session_stream(400.0, day, &mut rng);
    println!(
        "generated {} diurnal live sessions over 24 h",
        sessions.len()
    );

    let mut orch = Orchestrator::new(OrchestratorConfig::default());

    // Event list: session starts and ends, time-ordered.
    let mut events: Vec<(SimTime, usize, bool)> = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        events.push((s.start, i, true));
        events.push((s.start + s.duration, i, false));
    }
    events.sort_by_key(|&(t, i, start)| (t, i, start));

    // The traditional server cannot power-gate per-container: it idles at
    // hundreds of watts all day. Charge it the same duty pattern: sample
    // cluster power every 5 minutes and assume the traditional server runs
    // at the utilization that power implies.
    let server = TraditionalServer::cpu_only();
    let step = SimDuration::from_mins(5);
    let end_of_day = SimTime::ZERO + day;
    let mut next_sample = SimTime::ZERO;
    let mut trad_joules = 0.0;
    let mut sample_until = |orch: &mut Orchestrator, t: SimTime| {
        while next_sample <= t.min(end_of_day) {
            orch.advance_to(next_sample);
            let cluster_p = orch.power().as_watts();
            let idle = orch.cluster().idle_power().as_watts();
            let util = ((cluster_p - idle * 0.3) / 400.0).clamp(0.0, 1.0);
            let p = server.power(Utilization::new(util), Utilization::ZERO, 0);
            trad_joules += p.as_watts() * step.as_secs_f64();
            next_sample += step;
        }
    };

    let mut deployed: BTreeMap<usize, socc_cluster::WorkloadId> = BTreeMap::new();
    let mut rejected = 0usize;
    let mut peak_power = 0.0f64;
    let mut peak_active = 0usize;
    for (t, session_idx, is_start) in events {
        sample_until(&mut orch, t);
        orch.advance_to(t);
        if is_start {
            let video = socc_video::vbench::by_id(&sessions[session_idx].video_id).expect("vbench");
            match orch.submit(WorkloadSpec::LiveStreamCpu { video }) {
                Ok(id) => {
                    deployed.insert(session_idx, id);
                }
                Err(_) => rejected += 1,
            }
        } else if let Some(id) = deployed.remove(&session_idx) {
            orch.finish(id).expect("deployed session");
        }
        peak_power = peak_power.max(orch.power().as_watts());
        peak_active = peak_active.max(orch.active_workloads());
    }
    sample_until(&mut orch, end_of_day);
    // Sessions started late in the day can end after the 24 h mark.
    orch.advance_to(orch.now().max(end_of_day));

    let cluster_kwh = orch.energy().as_kilowatt_hours();
    println!("peak concurrency: {peak_active} streams (rejected {rejected})");
    println!("cluster peak power: {peak_power:.0} W");
    println!("cluster 24h energy: {cluster_kwh:.2} kWh");
    let trad_kwh = trad_joules / 3.6e6;
    println!("traditional CPU server, same duty: {trad_kwh:.2} kWh");
    println!(
        "cluster saves {:.0}% of daily energy on this diurnal workload",
        (1.0 - cluster_kwh / trad_kwh) * 100.0
    );
    let (active, idle, sleep, _) = orch.cluster().state_counts();
    println!("end of day soc states: {active} active / {idle} idle / {sleep} asleep");
}

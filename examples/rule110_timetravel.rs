//! Watch the divide-and-conquer executor traverse space-time out of
//! order (experiment E1): the host executes whole diamonds of the
//! computation dag — jumping forward in time inside one region before
//! touching its neighbors — yet reproduces the guest bit-for-bit.
//!
//! ```sh
//! cargo run --release --example rule110_timetravel
//! ```

use bsmp::geometry::{render, Diamond, IRect};
use bsmp::machine::{run_guest, MachineSpec};
use bsmp::sim::dnc::simulate_dnc;
use bsmp::workloads::{inputs, Eca};

fn main() {
    let n = 64u64;
    let steps = 64i64;
    let init = inputs::impulse(n as usize, n as usize / 2);
    let spec = MachineSpec::new(1, n, 1, 1);

    // The separator the executor uses, drawn like the paper's Figure 1.
    let d = Diamond::new(8, 8, 8);
    let pieces: Vec<_> = d
        .children()
        .into_iter()
        .map(|c| bsmp::geometry::ClippedDiamond::new(c, IRect::new(0, 17, 0, 17)))
        .collect();
    println!("One diamond D(r), split into its ordered children (Theorem 2's");
    println!("(2√(2x), 1/4)-topological separator; time flows upward):\n");
    println!(
        "{}",
        render::render_partition1(IRect::new(1, 16, 1, 17), &pieces)
    );

    let guest = run_guest::<1>(&spec, &Eca::rule110(), &init, steps);
    let host = simulate_dnc::<1>(&spec, &Eca::rule110(), &init, steps);
    host.assert_matches(&guest.mem, &guest.values);

    println!("rule 110, n = {n}, T = {steps}:");
    println!("  guest time T_n        = {:>12.0}", guest.time);
    println!("  host  time T_1        = {:>12.0}", host.host_time);
    println!(
        "  slowdown              = {:>12.1}  (Theorem 2: O(n log n) = {:.0})",
        host.slowdown(),
        bsmp::analytic::bounds::thm2_slowdown(n as f64)
    );
    println!(
        "  host memory footprint = {:>12}  words (σ = O(√|V|))",
        host.space
    );
    println!("  cost breakdown        : {}", host.meter);
    println!("\nFinal configurations match exactly — time travel with receipts.");
}

//! **Figure 4**: cell voltages in three different columns during a
//! Half-m operation — the weak one, the weak zero, and the Half value.
//!
//! Three probes watch one cell of `R1` in three columns whose initial
//! quad contents are all-ones, all-zeros, and the balanced
//! two-ones/two-zeros pattern respectively.
//!
//! ```text
//! cargo run --release -p fracdram-experiments --bin fig4_halfm_trace
//! ```

use fracdram::halfm::{halfm_in_place, halfm_program};
use fracdram::rowsets::Quad;
use fracdram_experiments::{render, setup, Args};
use fracdram_model::{GroupId, SubarrayAddr};

fn main() {
    let args = Args::parse();
    if args.usage(
        "fig4_halfm_trace",
        "reproduce Fig. 4: cell voltages during Half-m (weak 1 / weak 0 / Half)",
        &[("seed", "die seed (default 4)")],
    ) {
        return;
    }
    let seed = args.u64("seed", 4);
    args.reject_unknown();

    let mut mc = setup::controller(GroupId::B, setup::compute_geometry(), seed);
    let geometry = *mc.module().geometry();
    let quad = Quad::canonical(&geometry, SubarrayAddr::new(0, 0), GroupId::B).expect("quad");
    let rows = quad.rows(&geometry);
    let width = mc.module().row_bits();

    // Column roles: 0 = all ones (weak one), 1 = all zeros (weak zero),
    // 2 = balanced (Half). Written as physical values per §II-C, so the
    // probes see clean rails regardless of column polarity.
    let balanced_one = [true, false, true, false]; // R1, R2, R3, R4
    for (slot, row) in rows.iter().enumerate() {
        let physical: Vec<bool> = (0..width)
            .map(|col| match col % 3 {
                0 => true,
                1 => false,
                _ => balanced_one[slot],
            })
            .collect();
        // Convert desired physical values to logical bits.
        let to_logical = fracdram::frac::physical_pattern(&mut mc, *row, true);
        let bits: Vec<bool> = physical
            .iter()
            .zip(&to_logical)
            .map(|(&phys, &logical_of_physical_one)| {
                if phys {
                    logical_of_physical_one
                } else {
                    !logical_of_physical_one
                }
            })
            .collect();
        mc.write_row(*row, &bits).expect("init");
    }

    // Probe R1's cell in the three columns.
    for col in [0usize, 1, 2] {
        mc.module_mut().chip_mut(0).attach_probe(rows[0], col);
    }
    halfm_in_place(&mut mc, &quad).expect("halfm");
    let t = mc.clock();
    mc.module_mut().probe_cell_voltage(rows[0], 0, t);
    let samples = mc.module_mut().chip_mut(0).take_probe_samples(0, 0);

    println!(
        "{}",
        render::header("Fig. 4 — Half-m trajectories (group B quad {8,1,0,9}, Vdd = 1.5 V)")
    );
    let labels = [
        "all-ones column (weak 1)",
        "all-zeros column (weak 0)",
        "balanced column (Half)",
    ];
    for (probe, label) in samples.iter().zip(labels) {
        println!("\n{label}:");
        println!(
            "{:>8}  {:>8}  {:>9}  event",
            "cycle", "cell (V)", "bit-line"
        );
        let base = probe.first().map_or(0, |s| s.cycle);
        for s in probe {
            println!(
                "{:>8}  {:>8.3}  {:>9.3}  {:?}",
                s.cycle - base,
                s.cell_v.value(),
                s.bitline_v.value(),
                s.event
            );
        }
    }
    let p = halfm_program(&quad, &geometry);
    println!(
        "\nHalf-m program: {} commands, {} total",
        p.len(),
        p.total_cycles()
    );
    println!("expected shape: weak 1 stays above Vdd/2, weak 0 below, Half lands near Vdd/2;");
    println!("the trailing PRECHARGE closes the rows before any sense event appears.");
}

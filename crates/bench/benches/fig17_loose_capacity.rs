//! Fig. 17 — baseline sensitivity to loosely fitting trap capacities (excess room) on
//! the `[[225,9,6]]` code at `p = 10⁻⁴`. The paper finds negligible improvement.

use bench::{ms, sci, sensitivity_code, Table};
use cyclone::experiments::fig17_loose_capacity;

fn main() {
    let code = sensitivity_code();
    let title = format!(
        "Fig. 17: baseline sensitivity to loose trap capacity ({})",
        code.descriptor()
    );
    bench::runner::figure("fig17_loose_capacity", &title, |ctx| {
        let capacities = [5, 8, 12, 20, 40];
        let rows = fig17_loose_capacity(&code, 1e-4, &capacities, &ctx.sweep);
        let mut table = Table::new(&["trap capacity", "baseline exec (ms)", "baseline LER"]);
        for r in rows {
            table.row(vec![
                r.capacity.to_string(),
                ms(r.execution_time),
                sci(r.ler.ler),
            ]);
        }
        table
    });
}

//! Fig. 20 — total and unrolled (component-wise) execution times of the three baseline
//! compilers and Cyclone on the `[[225,9,6]]` code, plus realized parallelization.

use bench::{ms, sensitivity_code, Table};
use cyclone::experiments::fig20_compiler_comparison;

fn main() {
    let code = sensitivity_code();
    let title = format!(
        "Fig. 20: compiler comparison with component breakdown ({})",
        code.descriptor()
    );
    bench::runner::figure("fig20_compilers", &title, |_ctx| {
        let rows = fig20_compiler_comparison(&code);
        let mut table = Table::new(&[
            "compiler",
            "exec (ms)",
            "unrolled (ms)",
            "gate (ms)",
            "shuttle (ms)",
            "swap (ms)",
            "measure (ms)",
            "parallelization",
        ]);
        for r in rows {
            table.row(vec![
                r.compiler,
                ms(r.execution_time),
                ms(r.serialized_total),
                ms(r.gate),
                ms(r.shuttle),
                ms(r.swap),
                ms(r.measurement),
                format!("{:.1}x", r.parallelization),
            ]);
        }
        table
    });
}

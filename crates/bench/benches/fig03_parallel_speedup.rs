//! Fig. 3 — speedup of the maximally parallel syndrome-extraction schedule over the
//! fully serial schedule, for every HGP and BB code in the catalog.

use bench::Table;
use cyclone::experiments::fig3_parallel_speedup;

fn main() {
    bench::runner::figure(
        "fig03_parallel_speedup",
        "Fig. 3: fully parallel vs fully serial schedule speedup",
        |ctx| {
            let rows = fig3_parallel_speedup(&bench::catalog(ctx.full));
            let mut table = Table::new(&[
                "code",
                "family",
                "serial depth",
                "parallel depth",
                "speedup (x)",
            ]);
            for r in rows {
                table.row(vec![
                    r.code,
                    r.family,
                    r.serial_depth.to_string(),
                    r.parallel_depth.to_string(),
                    format!("{:.1}", r.speedup),
                ]);
            }
            table
        },
    );
}

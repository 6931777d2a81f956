//! Roadblock census (the headline §IV claim): for every code in the catalog,
//! count shuttling roadblock events and the total time spent waiting on them
//! under the static baseline compiler vs the Cyclone codesign. Cyclone must
//! report exactly zero.

use bench::{ms, Table};
use cyclone::standard_registry;
use qccd::timing::OperationTimes;

fn main() {
    bench::runner::figure(
        "roadblock_counts",
        "Roadblock census: baseline grid vs Cyclone",
        |ctx| {
            let times = OperationTimes::default();
            let registry = standard_registry();
            let mut table = Table::new(&[
                "code",
                "family",
                "B roadblocks",
                "B wait (ms)",
                "C roadblocks",
                "C wait (ms)",
            ]);
            for entry in bench::catalog(ctx.full) {
                let base = registry.compile("baseline", &entry.code, &times);
                let cyc = registry.compile("cyclone", &entry.code, &times);
                assert_eq!(
                    cyc.roadblock_events, 0,
                    "{}: Cyclone must be roadblock-free",
                    entry.label
                );
                table.row(vec![
                    entry.label,
                    format!("{:?}", entry.family),
                    base.roadblock_events.to_string(),
                    ms(base.breakdown.roadblock_wait),
                    cyc.roadblock_events.to_string(),
                    ms(cyc.breakdown.roadblock_wait),
                ]);
            }
            table
        },
    );
}

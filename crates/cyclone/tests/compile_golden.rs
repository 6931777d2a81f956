//! Golden pin of the QCCD compile layer: every `standard_registry()` codesign on
//! BB-72, BB-90, HGP-100 and HGP-225, compared bit for bit against a recorded
//! table.
//!
//! Each row pins the `compile_profiled` result exactly: the bits of
//! `execution_time` and of every `ComponentTimes` field, the shuttle, rebalance
//! and roadblock counts, and an FNV-1a digest of the `IdleExposure` bits. Any
//! change to path finding, rebalancing, placement or measurement order that moves
//! a single float bit fails here.
//!
//! To regenerate the table after an intentional change, run
//! `cargo test --release -p cyclone --test compile_golden -- --ignored --nocapture`
//! and paste the printed rows over `GOLDEN`.

use cyclone::standard_registry;
use decoder::bp::priors_digest;
use qccd::compiler::{CompiledRound, IdleExposure};
use qccd::timing::OperationTimes;
use qec::codes::{bb_72_12_6, bb_90_8_10, hgp_100, hgp_225_9_6};

/// The pinned fields of one compile: `execution_time` bits, the bits of the nine
/// `ComponentTimes` fields in declaration order, shuttles, rebalances, roadblock
/// events, and the idle-exposure digest.
type Pin = (u64, [u64; 9], usize, usize, usize, u64);

/// FNV-1a over the exposure bits: data, X ancillas, Z ancillas, then the horizon.
/// Codesigns without a per-qubit profile digest to 0.
fn exposure_digest(exposure: Option<&IdleExposure>) -> u64 {
    exposure.map_or(0, |e| {
        let mut flat = e.measurement_order();
        flat.splice(0..0, e.data.iter().copied());
        flat.push(e.horizon);
        priors_digest(&flat)
    })
}

fn pin_of(round: &CompiledRound, exposure: Option<&IdleExposure>) -> Pin {
    let b = round.breakdown;
    (
        round.execution_time.to_bits(),
        [
            b.gate,
            b.split,
            b.merge,
            b.shuttle_move,
            b.junction,
            b.swap,
            b.measurement,
            b.rebalance,
            b.roadblock_wait,
        ]
        .map(f64::to_bits),
        round.num_shuttles,
        round.num_rebalances,
        round.roadblock_events,
        exposure_digest(exposure),
    )
}

/// Compiles every registered codesign on every pinned code, in table order:
/// (code name, codesign label, pin).
fn compile_all() -> Vec<(String, String, Pin)> {
    let times = OperationTimes::default();
    let registry = standard_registry();
    let codes = [bb_72_12_6(), bb_90_8_10(), hgp_100(), hgp_225_9_6()];
    let mut rows = Vec::new();
    for code in codes.into_iter().map(|c| c.expect("catalog code")) {
        for design in registry.iter() {
            let (round, exposure) = design.compile_profiled(&code, &times);
            rows.push((
                code.name().to_string(),
                design.name().to_string(),
                pin_of(&round, exposure.as_ref()),
            ));
        }
    }
    rows
}

#[test]
fn compile_output_matches_golden_table() {
    let rows = compile_all();
    assert_eq!(
        rows.len(),
        GOLDEN.len(),
        "the table must cover every registered codesign on every pinned code"
    );
    for ((code, label, got), (want_code, want_label, want)) in rows.iter().zip(GOLDEN) {
        assert_eq!((code.as_str(), label.as_str()), (*want_code, *want_label));
        assert_eq!(got, want, "compile of `{label}` on {code} drifted");
    }
}

#[test]
#[ignore = "prints the golden table; run in release after an intentional change"]
fn print_golden_table() {
    for (code, label, (exec, breakdown, shuttles, rebalances, roadblocks, digest)) in compile_all()
    {
        let fields: Vec<String> = breakdown.iter().map(|b| format!("{b:#018x}")).collect();
        println!(
            "    (\"{code}\", \"{label}\", ({exec:#018x}, [{}], {shuttles}, {rebalances}, {roadblocks}, {digest:#018x})),",
            fields.join(", ")
        );
    }
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str, Pin)] = &[
    ("BB-72", "baseline", (0x3fca95e9e1b08a09, [0x3f945953586ca890, 0x3fb8f1d3ed527d95, 0x3fb8f1d3ed527d95, 0x3f9e7ea5f84cac2b, 0x3fca09aaa3ad1918, 0x3fc5094a2b9d3c93, 0x3f861e4f765fd8b6, 0x3fb24d2b2bfdb4cb, 0x4019da92a30553b5], 412, 367, 877, 0x586d3076f0f074f4)),
    ("BB-72", "baseline2", (0x3fc64f97edc7ef53, [0x3f945953586ca890, 0x3fb58644523f675f, 0x3fb58644523f675f, 0x3f9b90ea9e6eea65, 0x3fc8461f9f01b8a3, 0x3fc23baba7b916e0, 0x3f861e4f765fd8b6, 0x3fb352007dd44134, 0x4016e76e1deaccf7], 401, 384, 845, 0x716104e9b269218a)),
    ("BB-72", "baseline3", (0x3fc8b2c83ec892fb, [0x3f945953586ca890, 0x3fb532617c1bd9bf, 0x3fb532617c1bd9bf, 0x3f9bb05faebc3f81, 0x3fc8d10f51ac9b49, 0x3fc1e657b84db99a, 0x3f861e4f765fd8b6, 0x3fb425aee631f89c, 0x40179363f572dec7], 404, 399, 912, 0x32eb59ac64d0dc19)),
    ("BB-72", "dynamic-grid", (0x3fced549731099ad, [0x3f945953586ca890, 0x3fb91bc558644465, 0x3fb91bc558644465, 0x3f9ff2e48e8a70a1, 0x3fcc60aa64c2f8b5, 0x3fc5141a6937d1db, 0x3f861e4f765fd8b6, 0x3fb4fa05143bf72f, 0x401efadfb506deb2], 424, 418, 899, 0x2ceff854cc73106f)),
    ("BB-72", "dynamic-mesh", (0x3fd01a93293d110f, [0x3f945953586ca890, 0x3fa172ef0ae5364a, 0x3fa172ef0ae5364a, 0x3fa95421c0442ad3, 0x3fe15c52e72da229, 0x3fae1975f2cb63ef, 0x3f861e4f765fd8b6, 0x3fb9f6a93f290ab4, 0x4019208e15011adf], 426, 426, 953, 0x86b3791a81a14287)),
    ("BB-72", "alternate-grid", (0x3fee59e625636386, [0x3f945953586ca890, 0x3fd7a8d64d7f10c9, 0x3fd7a8d64d7f10c9, 0x3fb7a8d64d7f0df2, 0x3fa7a8d64d7f10c9, 0x3fe4679463cfb3df, 0x3f861e4f765fd8b6, 0x3fc3f33871609574, 0x4040c21b8ed1bcc1], 414, 410, 1038, 0x96688200f6a20cd0)),
    ("BB-72", "ring-static", (0x3fe903e63e8dd6c8, [0x3f9376d54973109e, 0x3fd57689ca18be9e, 0x3fd57689ca18be9e, 0x3fb57689ca18bd74, 0x3fa57689ca18be9e, 0x3fe1b4fe79ee0404, 0x3f861e4f765fd8b6, 0x3fc330941c8216c5, 0x403ae0611fd58247], 413, 413, 1058, 0x7fb1796eda19a86f)),
    ("BB-72", "cyclone", (0x3f98611fd5885d37, [0x3f9294573a7978aa, 0x3fca8ac5c13fd0ca, 0x3fca8ac5c13fd0ca, 0x3faa8ac5c13fd0ca, 0x3f9a8ac5c13fd0ca, 0x3fd4e6e221c8a7a7, 0x3f861e4f765fd8ae, 0x0000000000000000, 0x0000000000000000], 72, 0, 0, 0x5e6ee026659cf8ab)),
    ("BB-72", "cyclone-x4", (0x3fbcfa193631eb34, [0x3fc01fd3041e72b1, 0x3f9797cc39ffd60f, 0x3f9797cc39ffd60f, 0x3f7797cc39ffd60f, 0x3f6797cc39ffd60f, 0x3fd01fd3041e72b2, 0x3f861e4f765fd8ae, 0x0000000000000000, 0x0000000000000000], 72, 0, 0, 0xc49bfa8a57899e01)),
    ("BB-72", "cyclone-x16", (0x3fa3e81450efdc9e, [0x3f95f88fc9363f52, 0x3fb797cc39ffd60f, 0x3fb797cc39ffd60f, 0x3f9797cc39ffd60f, 0x3f8797cc39ffd60f, 0x3fc700cd855970b2, 0x3f861e4f765fd8ae, 0x0000000000000000, 0x0000000000000000], 96, 0, 0, 0x1c62b83f781c4a37)),
    ("BB-90", "baseline", (0x3fd1198aeb80ed68, [0x3f996fa82e87d2d4, 0x3fc1af3a14cec384, 0x3fc1af3a14cec384, 0x3fa5c28f5c28f714, 0x3fd2cd4aa10e0291, 0x3fcdcd5f99c38aca, 0x3f8ba5e353f7ceea, 0x3fb7f0ed3d859c92, 0x4027f6f4be835eb7], 521, 474, 1274, 0x7084bddf30aaeae6)),
    ("BB-90", "baseline2", (0x3fcac5b078d93011, [0x3f996fa82e87d2d4, 0x3fbdc1e7967cadb3, 0x3fbdc1e7967cadb3, 0x3fa3150dae3e6cb7, 0x3fd0e8fb00bcbec0, 0x3fc92c386d2ed758, 0x3f8ba5e353f7ceea, 0x3fb85f06f694467b, 0x40200b7739f34123], 500, 480, 1079, 0x3c47f81fe1ea39a9)),
    ("BB-90", "baseline3", (0x3fcd9ddc1e79686f, [0x3f996fa82e87d2d4, 0x3fbd78811b1d91c7, 0x3fbd78811b1d91c7, 0x3fa2e72da122fb32, 0x3fd0c1fc8f3237f0, 0x3fc8dc011d367183, 0x3f8ba5e353f7ceea, 0x3fb8ef34d6a161e8, 0x40224fca42aed1bf], 499, 492, 1084, 0x3672187b032ae1c2)),
    ("BB-90", "dynamic-grid", (0x3fd386f47b678027, [0x3f996fa82e87d2d4, 0x3fc0dae3e6c4c507, 0x3fc0dae3e6c4c507, 0x3fa57689ca18be9e, 0x3fd317acc4ef8944, 0x3fcc4523f67f4d98, 0x3f8ba5e353f7ceea, 0x3fba2fad6cb53515, 0x402a831fcd24e2df], 530, 516, 1092, 0xaa4ca6c7ee744438)),
    ("BB-90", "dynamic-mesh", (0x3fd5b163baba7d45, [0x3f996fa82e87d2d4, 0x3fa595feda66124e, 0x3fa595feda66124e, 0x3fb17ebaf10237fa, 0x3fe838088509c133, 0x3fb29e2bcf91a312, 0x3f8ba5e353f7ceea, 0x3fc0ea4a8c154c9a, 0x4026958c4bd33f90], 527, 522, 1130, 0xda9a67fdeecade87)),
    ("BB-90", "alternate-grid", (0x3ff83c408d8ec9f1, [0x3f996fa82e87d2d4, 0x3fe36262cba733d0, 0x3fe36262cba733d0, 0x3fc36262cba73460, 0x3fb36262cba733d0, 0x3ff0b7fbefd005ef, 0x3f8ba5e353f7ceea, 0x3fcdebd9018e757c, 0x40532a527a2058b6], 522, 521, 1404, 0x65fc27874723dbc3)),
    ("BB-90", "ring-static", (0x3ff16266fd651817, [0x3f98548a9bcfd4a2, 0x3fe035158b8281ed, 0x3fe035158b8281ed, 0x3fc035158b827da4, 0x3fb035158b8281ed, 0x3feabdfd2630ef22, 0x3f8ba5e353f7ceea, 0x3fcae5de15ca6ca3, 0x404aed8750c1b40a], 522, 522, 1424, 0xb0120b0f97c74bc4)),
    ("BB-90", "cyclone", (0x3f9e1e2de8709749, [0x3f97396d0917d6da, 0x3fd4bc6a7ef9db23, 0x3fd4bc6a7ef9db23, 0x3fb4bc6a7ef9db23, 0x3fa4bc6a7ef9db23, 0x3fe05460aa64c2fd, 0x3f8ba5e353f7ceda, 0x0000000000000000, 0x0000000000000000], 90, 0, 0, 0x23868f5d65e3c4e5)),
    ("BB-90", "cyclone-x4", (0x3fd13e28a6163cd0, [0x3fd2284efe95c7a8, 0x3f9d7dbf487fcb93, 0x3f9d7dbf487fcb93, 0x3f7d7dbf487fcb93, 0x3f6d7dbf487fcb93, 0x3fe3f1e8e6080737, 0x3f8ba5e353f7ceda, 0x0000000000000000, 0x0000000000000000], 96, 0, 0, 0xfa7692df4090a8e8)),
    ("BB-90", "cyclone-x16", (0x3fa410f94c879811, [0x3f9d4e8fb00bcbea, 0x3fbd7dbf487fcb91, 0x3fbd7dbf487fcb91, 0x3f9d7dbf487fcb91, 0x3f8d7dbf487fcb91, 0x3fcddc1e7967caed, 0x3f8ba5e353f7ceda, 0x0000000000000000, 0x0000000000000000], 96, 0, 0, 0xd5302ec44e242e8f)),
    ("HGP-100", "baseline", (0x3fd07863beec39e0, [0x3f9fa76534373f60, 0x3fc24f227d02897d, 0x3fc24f227d02897d, 0x3fa81adea897657a, 0x3fd5e6eeb70260e5, 0x3fcf05c896dd2687, 0x3f8d7dbf487fcba6, 0x3fc0245f5ad96a7a, 0x402ce357a3550521], 645, 632, 1599, 0xd4a3d5f9621b73f6)),
    ("HGP-100", "baseline2", (0x3fce17e34b94539f, [0x3f9fa76534373f60, 0x3fc04577d95570c2, 0x3fc04577d95570c2, 0x3fa5edd052934c2b, 0x3fd427a63736ce95, 0x3fcbb6cbd987c5fb, 0x3f8d7dbf487fcba6, 0x3fbf71c970f7b9f7, 0x4022e49a5657fbeb], 633, 615, 1389, 0x274d2b2430787f5f)),
    ("HGP-100", "baseline3", (0x3fd013879c411428, [0x3f9fa76534373f60, 0x3fc04ab606b7a99c, 0x3fc04ab606b7a99c, 0x3fa60bf5d788131c, 0x3fd45d0fa58f71d2, 0x3fcba51a005c461f, 0x3f8d7dbf487fcba6, 0x3fc01450efdc9c5b, 0x402573f7ced91740], 638, 628, 1409, 0x1c082ea072a93437)),
    ("HGP-100", "dynamic-grid", (0x3fd628bb0a2caab4, [0x3f9fa76534373f60, 0x3fc45b6c3760bea5, 0x3fc45b6c3760bea5, 0x3fab48d3ae6860e5, 0x3fd946b26bf877ac, 0x3fd127243137b08e, 0x3f8d7dbf487fcba6, 0x3fc10a67620ee8df, 0x4030d5c1c6088e47], 668, 662, 1605, 0x24ae5a93db9a4b05)),
    ("HGP-100", "dynamic-mesh", (0x3fdd84662bae0696, [0x3f9fa76534373f60, 0x3fab66f9335d2426, 0x3fab66f9335d2426, 0x3fb93dd97f62b520, 0x3ff1a58f7121aadf, 0x3fb7a26a22b3890e, 0x3f8d7dbf487fcba6, 0x3fc6bde3fbbd7b1c, 0x403594a0c282c91f], 669, 668, 1711, 0xc0ca3d72b4569d14)),
    ("HGP-100", "alternate-grid", (0x40015e39713ad7bb, [0x3f9fa76534373f60, 0x3feaeb1c432ca335, 0x3feaeb1c432ca335, 0x3fcaeb1c432caf44, 0x3fbaeb1c432ca335, 0x3ff73775b812fec7, 0x3f8d7dbf487fcba6, 0x3fd4029f16b11c67, 0x4061294c2f837df0], 645, 645, 1708, 0x88afb2444f86949c)),
    ("HGP-100", "ring-static", (0x3ff230121682f7d7, [0x3f9fa76534373f60, 0x3fe2f5989df1184e, 0x3fe2f5989df1184e, 0x3fc2f5989df11838, 0x3fb2f5989df1184e, 0x3ff032c1f42bb595, 0x3f8d7dbf487fcba6, 0x3fcb3a68b19a4159, 0x40516b059ea57011], 649, 647, 1718, 0x9a97e537ec53d0ee)),
    ("HGP-100", "cyclone", (0x3fa141e9af5ba2bb, [0x3f9d10b1feeb2d39, 0x3fd797cc39ffd613, 0x3fd797cc39ffd613, 0x3fb797cc39ffd613, 0x3fa797cc39ffd613, 0x3fe376d54973109c, 0x3f8d7dbf487fcb93, 0x0000000000000000, 0x0000000000000000], 96, 0, 0, 0x444a27176320f287)),
    ("HGP-100", "cyclone-x4", (0x3fd53ae9b120fe4d, [0x3fdcc8e71d6955be, 0x3f9f75104d551d6a, 0x3f9f75104d551d6a, 0x3f7f75104d551d6a, 0x3f6f75104d551d6a, 0x3fe8ac33d01124ec, 0x3f8d7dbf487fcb93, 0x0000000000000000, 0x0000000000000000], 96, 0, 0, 0x3bbea817bbd644ee)),
    ("HGP-100", "cyclone-x16", (0x3fa52ef911cf355c, [0x3fa2c6ac215b9a5c, 0x3fbf75104d551d6c, 0x3fbf75104d551d6c, 0x3f9f75104d551d6c, 0x3f8f75104d551d6c, 0x3fd083dbc23315d8, 0x3f8d7dbf487fcb93, 0x0000000000000000, 0x0000000000000000], 96, 0, 0, 0x1385e934b1e1fd95)),
    ("HGP-225", "baseline", (0x3fe6008a697aedf1, [0x3fb1ce28ed5f134b, 0x3fde2046c764b222, 0x3fde2046c764b222, 0x3fc3bc7f77af65ea, 0x3ff211c6d1e10803, 0x3fe991ea78af3df5, 0x3fa096bb98c7e292, 0x3fd2ea9e6eeb700b, 0x4052e76933a0403c], 1460, 1420, 4146, 0x7b508040e5574175)),
    ("HGP-225", "baseline2", (0x3fe2cd466f501a98, [0x3fb1ce28ed5f134b, 0x3fd947064ece9cad, 0x3fd947064ece9cad, 0x3fc0e8fb00bcbd2a, 0x3fef47304039adc5, 0x3fe596feb4a665d0, 0x3fa096bb98c7e292, 0x3fd24b33daf8df71, 0x404aa1bed30f0725], 1423, 1382, 3552, 0x5691d4441f7e8318)),
    ("HGP-225", "baseline3", (0x3fe36e37154003b3, [0x3fb1ce28ed5f134b, 0x3fd92f6e82949ccf, 0x3fd92f6e82949ccf, 0x3fc0f4c6e6d9bd22, 0x3fef75104d551f47, 0x3fe57d3d4280ae87, 0x3fa096bb98c7e292, 0x3fd2d6a161e4f739, 0x404e17d5022574db], 1433, 1422, 3576, 0x6a84bd6a5f4f9df9)),
    ("HGP-225", "dynamic-grid", (0x3fed7d0f1f57b2c2, [0x3fb1ce28ed5f134b, 0x3fe05e5f30e80192, 0x3fe05e5f30e80192, 0x3fc5fd36f7e3d62a, 0x3ff4906cca2db300, 0x3febb98c7e282398, 0x3fa096bb98c7e292, 0x3fd4240b780346ab, 0x4058dad8cb07cf3b], 1502, 1492, 4220, 0x5dbe59e533a82c43)),
    ("HGP-225", "dynamic-mesh", (0x3ffa4d67fd3f56e7, [0x3fb1ce28ed5f134b, 0x3fbec80c73abc847, 0x3fbec80c73abc847, 0x3fdd14b9cb685ed1, 0x401507d805e5e3b4, 0x3fca8c8abd5dc3d9, 0x3fa096bb98c7e292, 0x3fe2b8e4b87bdced, 0x40646be69ad4287c], 1503, 1502, 5289, 0xb2f9c05bb65216cd)),
    ("HGP-225", "alternate-grid", (0x40222198aeb7f08c, [0x3fb1ce28ed5f134b, 0x400f4bf0995ac7fb, 0x400f4bf0995ac7fb, 0x3fef4bf0995a6f92, 0x3fdf4bf0995ac7fb, 0x401afdeacc9209a4, 0x3fa096bb98c7e292, 0x3ff2f36262cba732, 0x40913b61187e594c], 1448, 1440, 4226, 0x8b05c2b4b3adce35)),
    ("HGP-225", "ring-static", (0x4013dca9691a6b32, [0x3fb1ce28ed5f134b, 0x4006dbdf8f473f7b, 0x4006dbdf8f473f7b, 0x3fe6dbdf8f471a92, 0x3fd6dbdf8f473f7b, 0x40138cd749279381, 0x3fa096bb98c7e292, 0x3fe810b630a9152a, 0x4082f8ad9274d2dc], 1451, 1425, 4543, 0x7d21e1ba83bf4cd2)),
    ("HGP-225", "cyclone", (0x3fb314ca925fe978, [0x3fb059641f644974, 0x3ffddc1e7967cade, 0x3ffddc1e7967cade, 0x3fdddc1e7967cade, 0x3fcddc1e7967cade, 0x4008a265f0f5a10f, 0x3fa096bb98c7e283, 0x0000000000000000, 0x0000000000000000], 216, 0, 0, 0x21bff7753eca40c4)),
    ("HGP-225", "cyclone-x4", (0x401aac3dfab2a60e, [0x4022ddba370fa85a, 0x3fb1b1d92b7fe08b, 0x3fb1b1d92b7fe08b, 0x3f91b1d92b7fe08b, 0x3f81b1d92b7fe08b, 0x40309508bb3a7e2b, 0x3fa096bb98c7e283, 0x0000000000000000, 0x0000000000000000], 216, 0, 0, 0xf0ba8227b87dbc46)),
    ("HGP-225", "cyclone-x16", (0x3fc7fa0683b14b29, [0x3fccfbbfb30410bc, 0x3fd1b1d92b7fe08a, 0x3fd1b1d92b7fe08a, 0x3fb1b1d92b7fe08a, 0x3fa1b1d92b7fe08a, 0x3ffc8c27c10f2964, 0x3fa096bb98c7e283, 0x0000000000000000, 0x0000000000000000], 224, 0, 0, 0x9cf1082325f85097)),
];

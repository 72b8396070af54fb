//! Golden digests of the simulator's complete output.
//!
//! `table1` replays only sequentially, so it never exercises coherence,
//! the L2 or the steal policies. This test pins everything else: every
//! registry row under PWS, RWS, BSP and the sequential replay on the
//! default machine, plus three cheap rows on a shared L2, a partitioned
//! L2 and a tiny cache that thrashes. Each case hashes the `Debug` text
//! of its full `ExecReport` (or `SeqReport`) with FNV-1a and compares
//! the digest against the constant recorded below, so any change to a
//! miss count, a clock, a steal or a stolen size shows up here.
//!
//! A mismatch means the simulator's observable behaviour changed. For a
//! deliberate change, the failure message lists the new digests in the
//! form of the `GOLDEN` table.

use hbp_core::{
    registry, run, run_sequential, AlgoSpec, BuildConfig, MachineConfig, Policy, SizeKind,
};

/// Small instances keep a debug build of this test to a few seconds.
fn size(row: &AlgoSpec) -> usize {
    match row.size {
        SizeKind::Linear => 1 << 8,
        SizeKind::MatrixSide => 8,
    }
}

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(case, digest)` for every policy and the sequential replay of `row`
/// on `machine`.
fn digests(row: &AlgoSpec, machine: MachineConfig, tag: &str) -> Vec<(String, u64)> {
    let comp = (row.build)(size(row), BuildConfig::with_block(machine.block_words), 1);
    let mut out = Vec::new();
    for (name, policy) in [
        ("pws", Policy::Pws),
        ("rws", Policy::Rws { seed: 3 }),
        ("bsp", Policy::Bsp { prefix_levels: 4 }),
    ] {
        let r = run(&comp, machine, policy);
        assert_eq!(r.work, comp.work(), "{} {name} {tag}", row.name);
        out.push((
            format!("{}/{name}/{tag}", row.name),
            fnv1a(&format!("{r:?}")),
        ));
    }
    let s = run_sequential(&comp, machine);
    out.push((format!("{}/seq/{tag}", row.name), fnv1a(&format!("{s:?}"))));
    out
}

/// The rows replayed on every non-default machine.
const CHEAP_ROWS: [&str; 3] = ["Scans (M-Sum)", "MT", "LR"];

fn all_digests() -> Vec<(String, u64)> {
    let rows = registry();
    assert_eq!(rows.len(), 14, "one golden block per registry row");
    let mut out = Vec::new();
    for row in &rows {
        out.extend(digests(row, MachineConfig::default_machine(), "default"));
    }
    let l1 = MachineConfig::new(4, 1 << 9, 16);
    let machines = [
        ("l2-shared", l1.with_l2(1 << 12, false)),
        ("l2-partitioned", l1.with_l2(1 << 12, true)),
        ("tiny", MachineConfig::new(8, 256, 8)),
    ];
    for (tag, machine) in machines {
        for name in CHEAP_ROWS {
            let row = rows.iter().find(|r| r.name == name).expect("cheap row");
            out.extend(digests(row, machine, tag));
        }
    }
    out
}

const GOLDEN: &[(&str, u64)] = &[
    ("Scans (M-Sum)/pws/default", 0x3a2076080bd4c35f),
    ("Scans (M-Sum)/rws/default", 0x68899ff3abfc7274),
    ("Scans (M-Sum)/bsp/default", 0xb3c2d561ffd48075),
    ("Scans (M-Sum)/seq/default", 0xc2e165688f93a1b0),
    ("Scans (PS)/pws/default", 0x983e9a7a83de6e24),
    ("Scans (PS)/rws/default", 0x42143507dd1e8930),
    ("Scans (PS)/bsp/default", 0x0d60f3e1039ea773),
    ("Scans (PS)/seq/default", 0x7cb54cec527e2c6d),
    ("MT/pws/default", 0x324e54a000354367),
    ("MT/rws/default", 0x5e407aa5eab09014),
    ("MT/bsp/default", 0x2951cea36c4028b1),
    ("MT/seq/default", 0x866bcbea73b2ab8c),
    ("Strassen/pws/default", 0xe3e8bab03564247e),
    ("Strassen/rws/default", 0x0e98727aab8ca392),
    ("Strassen/bsp/default", 0xe7bfad0e145523c3),
    ("Strassen/seq/default", 0x7f47c48b015e6336),
    ("RM to BI/pws/default", 0x5f573286191a311c),
    ("RM to BI/rws/default", 0x92cf9206cb84d630),
    ("RM to BI/bsp/default", 0xfea790b8423065c4),
    ("RM to BI/seq/default", 0xb32843cc483fec8e),
    ("Direct BI to RM/pws/default", 0x5f573286191a311c),
    ("Direct BI to RM/rws/default", 0x92cf9206cb84d630),
    ("Direct BI to RM/bsp/default", 0xfea790b8423065c4),
    ("Direct BI to RM/seq/default", 0xb32843cc483fec8e),
    ("BI-RM (gap RM)/pws/default", 0xf70eb535ce40920d),
    ("BI-RM (gap RM)/rws/default", 0x4c1ea145a2d686ea),
    ("BI-RM (gap RM)/bsp/default", 0x98bf1c1bde17ab7f),
    ("BI-RM (gap RM)/seq/default", 0x9af113f3f33ef965),
    ("BI-RM for FFT/pws/default", 0xb2323b5608f9cc6f),
    ("BI-RM for FFT/rws/default", 0x5daf7957cf5db1e6),
    ("BI-RM for FFT/bsp/default", 0x3cd9efa143c359ab),
    ("BI-RM for FFT/seq/default", 0xe64211112b291946),
    ("FFT/pws/default", 0x863dca01ef54cac7),
    ("FFT/rws/default", 0x16ef9d4d3d4bd970),
    ("FFT/bsp/default", 0xbf4903f3ad18a7b1),
    ("FFT/seq/default", 0x93b2e589b6d67bd7),
    ("LR/pws/default", 0xb338efcd61e9c727),
    ("LR/rws/default", 0x350770449157d8bf),
    ("LR/bsp/default", 0x29ff52ddd18340d6),
    ("LR/seq/default", 0x5b5436b874b0effe),
    ("CC/pws/default", 0xbb648381d193406a),
    ("CC/rws/default", 0xf27e5f2da10375b0),
    ("CC/bsp/default", 0x5fd0d145603c43e1),
    ("CC/seq/default", 0x2d7a842d425c5fb1),
    ("Depth-n-MM/pws/default", 0xdbeaa4171849d655),
    ("Depth-n-MM/rws/default", 0x974058e314debcfe),
    ("Depth-n-MM/bsp/default", 0xe582432d01abbf1a),
    ("Depth-n-MM/seq/default", 0x0059ad142f2955a2),
    ("Sort (SPMS)/pws/default", 0xe48b9c138c607b3d),
    ("Sort (SPMS)/rws/default", 0x699bab324cc0fb1c),
    ("Sort (SPMS)/bsp/default", 0x38af19a8634016cd),
    ("Sort (SPMS)/seq/default", 0xa29cb42d9bec9c53),
    ("Sort (merge std-in)/pws/default", 0xeadf76dad89df7e2),
    ("Sort (merge std-in)/rws/default", 0x6a26260c8b38d3cc),
    ("Sort (merge std-in)/bsp/default", 0x07394e0d51f1ba59),
    ("Sort (merge std-in)/seq/default", 0xd35ed59e2a605445),
    ("Scans (M-Sum)/pws/l2-shared", 0xb2bb5c6bad9ec87d),
    ("Scans (M-Sum)/rws/l2-shared", 0x1d7d9b397c31d29d),
    ("Scans (M-Sum)/bsp/l2-shared", 0x4c71a5f3425a5fff),
    ("Scans (M-Sum)/seq/l2-shared", 0x9040b790c2c221a0),
    ("MT/pws/l2-shared", 0xc50ec1b2893e347f),
    ("MT/rws/l2-shared", 0xaf98d96a494d1246),
    ("MT/bsp/l2-shared", 0xb1303ecefe3ca148),
    ("MT/seq/l2-shared", 0x4fcb232ed8a59d9d),
    ("LR/pws/l2-shared", 0xe4c83a0c64d12a1e),
    ("LR/rws/l2-shared", 0x233d087f21da90da),
    ("LR/bsp/l2-shared", 0x46a2a6cba9f0a8f5),
    ("LR/seq/l2-shared", 0x33595146769fe785),
    ("Scans (M-Sum)/pws/l2-partitioned", 0xbd5a5e7da5f12b1e),
    ("Scans (M-Sum)/rws/l2-partitioned", 0x588bede76d1af6c5),
    ("Scans (M-Sum)/bsp/l2-partitioned", 0xa52c36b797030d2c),
    ("Scans (M-Sum)/seq/l2-partitioned", 0x9040b790c2c221a0),
    ("MT/pws/l2-partitioned", 0x3fb732eef9c9f6c3),
    ("MT/rws/l2-partitioned", 0x11756c3c138c5605),
    ("MT/bsp/l2-partitioned", 0xd1c83ade5aac792b),
    ("MT/seq/l2-partitioned", 0x4fcb232ed8a59d9d),
    ("LR/pws/l2-partitioned", 0x411c68e1708a43fa),
    ("LR/rws/l2-partitioned", 0x7b59b91bd0ef46dc),
    ("LR/bsp/l2-partitioned", 0xdcf456ce11fa6388),
    ("LR/seq/l2-partitioned", 0x33595146769fe785),
    ("Scans (M-Sum)/pws/tiny", 0x7306dfc59de0af9c),
    ("Scans (M-Sum)/rws/tiny", 0x3c63833764a80830),
    ("Scans (M-Sum)/bsp/tiny", 0xf8ef480aedb8b42d),
    ("Scans (M-Sum)/seq/tiny", 0x43746b2f66d483b2),
    ("MT/pws/tiny", 0x77cf9792b5eda55f),
    ("MT/rws/tiny", 0xfcb846a797ce869a),
    ("MT/bsp/tiny", 0x945adc1be8770c91),
    ("MT/seq/tiny", 0x59bce2497ad197cb),
    ("LR/pws/tiny", 0xa50b3e7f0159f191),
    ("LR/rws/tiny", 0x8605d493dbc9f02e),
    ("LR/bsp/tiny", 0xf9cff5780b5336be),
    ("LR/seq/tiny", 0x1d79781b9c8607d0),
];

#[test]
fn exec_reports_match_golden_digests() {
    let got = all_digests();
    let mismatched: Vec<String> = got
        .iter()
        .filter(|(case, d)| GOLDEN.iter().find(|(c, _)| c == case).map(|g| g.1) != Some(*d))
        .map(|(case, d)| format!("    ({case:?}, {d:#018x}),"))
        .collect();
    assert!(
        mismatched.is_empty() && got.len() == GOLDEN.len(),
        "{} of {} simulator outputs differ from the golden digests \
         ({} constants recorded):\n{}",
        mismatched.len(),
        got.len(),
        GOLDEN.len(),
        mismatched.join("\n")
    );
}

//! The correctness gate's canonical report form and its pinned digests.

use dqa_core::experiment::RunReport;

/// FNV-1a (64-bit) over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Digest of a report's canonical rendering: its `Debug` form, which
/// prints every field, and every `f64` in shortest round-trip form, so two
/// reports share a digest only if they are bitwise equal (barring a hash
/// collision).
pub fn digest(report: &RunReport) -> u64 {
    fnv1a(format!("{report:?}").as_bytes())
}

/// Report digests of every cell of each workload at
/// [`crate::workloads::DEFAULT_SEED`], in cell order. A cell whose digest
/// differs at that seed fails the gate: the simulated trajectory changed.
pub const PINNED: [(&str, &[u64]); 3] = [
    (
        "paper_grid",
        &[
            0xcf90_cce7_9c75_f76f,
            0x6a06_0951_f52e_93dd,
            0x7539_415c_576e_51eb,
            0xccec_def2_5b51_51dd,
            0x6e36_8edc_f7e8_419d,
            0x95db_0ef7_c1ae_1176,
            0x68a9_ccd7_d5f7_e02e,
            0x0ad9_c9bb_4f36_7160,
            0x5c7e_9fdc_06c4_59fa,
            0x7b38_7d81_a836_eb69,
            0x2fcc_08a1_2b71_d221,
            0x36d6_cb2e_c3b4_7da5,
            0xb6de_79ad_3a7e_ed99,
            0x4a12_051b_1a58_9181,
            0x6ec9_59e8_5f77_1156,
            0xdf31_7f58_f8a4_e596,
        ],
    ),
    (
        "live_64site",
        &[0xe4ac_46d4_dbf1_f4a4, 0xe95a_838c_8148_42e6],
    ),
    (
        "resilient_rw",
        &[
            0x6d47_f6c5_ff4b_b9d8,
            0xc921_0c42_a23c_1030,
            0x5ec0_e1ab_8522_341c,
            0x123d_2466_0f19_f9eb,
            0xcc9c_ba81_4209_c1b9,
            0x26bd_6cbc_84e7_dfaa,
            0x955c_a68c_769e_138e,
            0xdd0d_9e55_8fcb_d3a1,
            0xb694_022c_2350_0d50,
            0x3e36_147c_e929_d8c8,
            0x3309_8591_8a37_b1f4,
            0x8494_c7ee_36f9_4f2e,
            0xc2b9_4c85_9ee1_8ec3,
            0x9766_6d31_8080_bda9,
            0x460c_1afd_e920_af3d,
            0xc453_b4d2_b350_46c9,
        ],
    ),
];

/// The pinned digests of `workload`, if it has any.
pub fn pinned(workload: &str) -> Option<&'static [u64]> {
    PINNED
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|(_, digests)| *digests)
}

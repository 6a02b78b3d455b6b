//! Digests of the `sweep-mem` sweep for the seeds the benchmark ships.
//!
//! Each value is [`crate::sweep::check_sweep`]'s digest of one sweep at
//! the benchmark's size: every cell's counters, energy and completion
//! times. A change that only speeds up the simulator must leave them
//! unchanged; a change to the model regenerates them with
//! `memscale-perfbench --print-digests 0..32`.

/// `(seed, digest)` pairs.
const SWEEP_MEM: &[(u64, u64)] = &[
    (0, 0xe647cfe20a41587c),
    (1, 0x16c6db2bf5f508b9),
    (2, 0x1e8896fd9bd42f13),
    (3, 0x7e9eea56ec1f280c),
    (4, 0x73a1f91b3ff16ebd),
    (5, 0x54664b8086eb80e1),
    (6, 0x8e30495cdb1b4a85),
    (7, 0x86b821a5db7fe308),
    (8, 0xf8b511ecc32a7e35),
    (9, 0x44801fc9fe10e99a),
    (10, 0x1e0916dd57126a79),
    (11, 0x939d4634d1541927),
    (12, 0xceb821276e11f9b0),
    (13, 0xa974922be9c26097),
    (14, 0xd9fb70f45d3d7ae3),
    (15, 0x723481b7f333224b),
    (16, 0xb5ea2baa1ac0fc48),
    (17, 0xd3075c7c591c72b6),
    (18, 0x891816f1437192e7),
    (19, 0x4c05546284c97299),
    (20, 0xb34da42f571963a2),
    (21, 0x79e0019cee5dbf2e),
    (22, 0xc10a3228b5aae8c7),
    (23, 0xc3d591638406c1ed),
    (24, 0x2a6a5d54de234ae5),
    (25, 0x93a92e458bc846bd),
    (26, 0xbee87a884c78b668),
    (27, 0xd6b8704bfc5be79a),
    (28, 0x2eb4733f17a95975),
    (29, 0x1f9e4dfad7873cf3),
    (30, 0x5c971c7697c23310),
    (31, 0x7f1fffba4215cced),
];

/// The shipped digest for `seed`, if any.
pub fn sweep_mem(seed: u64) -> Option<u64> {
    SWEEP_MEM.iter().find(|(s, _)| *s == seed).map(|(_, d)| *d)
}

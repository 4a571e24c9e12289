//! No verification verdict is cached (DESIGN.md §D29): every broker
//! checks each signature it is handed. Two no-ops remain for the
//! `qosbench` harness, which still calls them.

/// Always `(0, 0, 0)`. The benchmark's rewrite (ROADMAP item 1) deletes it.
pub fn stats() -> (u64, u64, u64) {
    (0, 0, 0)
}

/// Does nothing. The benchmark's rewrite (ROADMAP item 1) deletes it.
pub fn clear() {}

//! Known-bad fixture: allocations on the allocation-free decode path —
//! a `vec!` directly inside `decode_one`'s loop, and a `Vec::new` in a
//! helper that the loop calls every iteration, and a fresh scratch
//! `Vec::new` per task inside a closure handed to a pool region (no
//! lexical loop in sight: the region is the loop). The `hot_loop_alloc`
//! rule must flag all three (and not the setup allocation before the
//! loop).

pub fn decode_one(n: usize) -> usize {
    let mut acc = Vec::with_capacity(n).len();
    for i in 0..n {
        let tmp = vec![0u8; 4];
        acc = acc.max(tmp.len()).max(helper(i));
    }
    acc
}

fn helper(i: usize) -> usize {
    let scratch: Vec<usize> = Vec::new();
    scratch.len().max(i)
}

pub fn forward_rows_batch(att: &mut [f32], d: usize) {
    pool::run_chunks(att, d, 8, |row0, rows| {
        let mut scratch: Vec<f32> = Vec::new();
        scratch.resize(rows.len(), row0 as f32);
        rows.copy_from_slice(&scratch);
    });
}

//! The key-value cache shared by incremental, sequence-based and
//! tree-based decoding.
//!
//! A cache row holds the (RoPE-rotated) key and the value of one token for
//! one layer. Rows are append-only during a forward pass; speculative
//! decoding then keeps only the rows of the accepted path via
//! [`KvCache::retain_rows`] — the paper's depth-first shared-cache scheme
//! means rotated keys stay valid because RoPE depends on a token's
//! *logical* position, which is fixed at append time, not on its row index.
//!
//! # Slab layout
//!
//! Storage is a contiguous head-major slab: per layer, keys and values
//! each live in one preallocated buffer laid out `[n_heads][capacity,
//! head_dim]`, so the rows of one head are contiguous. Attention can then
//! score a whole query block against a head with a single blocked
//! `matmul_nt` over [`KvCache::key_head`] instead of gathering
//! `key_row(j)` token by token. A committed-length watermark (`len`)
//! tracks verified rows while a per-layer `rows` counter tracks rows
//! written by an in-flight forward pass; [`KvCache::truncate`] is a pure
//! watermark move (no data motion) and [`KvCache::retain_rows`] is one
//! in-place compaction memmove per head.

/// Per-layer key/value slabs for one sequence.
///
/// `k` and `v` are each `[n_heads][capacity, head_dim]`: head `h`'s rows
/// start at `h · capacity · head_dim` and are contiguous.
#[derive(Debug, Clone)]
struct LayerCache {
    k: Vec<f32>,
    v: Vec<f32>,
    /// Rows written to this layer (committed rows plus any rows appended
    /// by a forward pass that has not yet called `commit_rows`).
    rows: usize,
}

/// The KV cache of one request against one model.
///
/// All layers always hold the same number of rows.
#[derive(Debug, Clone)]
pub struct KvCache {
    layers: Vec<LayerCache>,
    n_heads: usize,
    head_dim: usize,
    len: usize,
    max_len: usize,
}

impl KvCache {
    /// Creates an empty cache for a model with `n_layers` layers,
    /// `n_heads` attention heads of width `head_dim`, and capacity
    /// `max_len` rows. The slabs are allocated up front so appends never
    /// reallocate or shift head regions.
    pub fn new(n_layers: usize, n_heads: usize, head_dim: usize, max_len: usize) -> Self {
        let slab = n_heads * max_len * head_dim;
        KvCache {
            layers: (0..n_layers)
                .map(|_| LayerCache {
                    k: vec![0.0; slab],
                    v: vec![0.0; slab],
                    rows: 0,
                })
                .collect(),
            n_heads,
            head_dim,
            len: 0,
            max_len,
        }
    }

    /// Number of cached rows (tokens).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The maximum number of rows the cache will admit.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Model width per row.
    pub fn d_model(&self) -> usize {
        self.n_heads * self.head_dim
    }

    /// Number of attention heads per row.
    pub fn n_heads(&self) -> usize {
        self.n_heads
    }

    /// Width of one head's slice of a row.
    pub fn head_dim(&self) -> usize {
        self.head_dim
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Appends `n` rows to layer `layer` straight from a fused
    /// `[n, stride]` projection buffer: row `r`'s key is
    /// `data[r·stride + k_off ..][..d_model]` and its value is
    /// `data[r·stride + v_off ..][..d_model]`, each split per head into
    /// the layer's head-major slabs. Callers must append the same `n` to
    /// every layer of one forward pass and then call
    /// [`KvCache::commit_rows`] once.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is too short, an offset overruns `stride`,
    /// or capacity would be exceeded.
    pub(crate) fn append_layer_fused_rows(
        &mut self,
        layer: usize,
        data: &[f32],
        stride: usize,
        k_off: usize,
        v_off: usize,
        n: usize,
    ) {
        let d = self.d_model();
        assert!(
            data.len() >= n * stride,
            "fused buffer too short for {n} rows"
        );
        assert!(
            k_off + d <= stride && v_off + d <= stride,
            "offset overruns fused row"
        );
        let hd = self.head_dim;
        let cap = self.max_len;
        let lc = &mut self.layers[layer];
        assert!(
            lc.rows + n <= cap,
            "KV cache overflow: {} + {} > {}",
            lc.rows,
            n,
            cap
        );
        for (r, row) in data.chunks(stride).take(n).enumerate() {
            let dst_row = lc.rows + r;
            for h in 0..self.n_heads {
                let dst = h * cap * hd + dst_row * hd;
                let src = h * hd;
                lc.k[dst..dst + hd].copy_from_slice(&row[k_off + src..k_off + src + hd]);
                lc.v[dst..dst + hd].copy_from_slice(&row[v_off + src..v_off + src + hd]);
            }
        }
        lc.rows += n;
    }

    /// Declares that `n` rows were appended to every layer.
    ///
    /// # Panics
    ///
    /// Panics (debug) if any layer's written rows disagree with the new
    /// length.
    pub(crate) fn commit_rows(&mut self, n: usize) {
        self.len += n;
        debug_assert!(self.layers.iter().all(|l| l.rows == self.len));
    }

    /// The contiguous key rows `[rows_written, head_dim]` of one head of
    /// one layer — includes rows appended by an in-flight forward pass.
    pub(crate) fn key_head(&self, layer: usize, head: usize) -> &[f32] {
        let hd = self.head_dim;
        let lc = &self.layers[layer];
        let base = head * self.max_len * hd;
        &lc.k[base..base + lc.rows * hd]
    }

    /// The contiguous value rows `[rows_written, head_dim]` of one head
    /// of one layer — includes rows appended by an in-flight forward
    /// pass.
    pub(crate) fn value_head(&self, layer: usize, head: usize) -> &[f32] {
        let hd = self.head_dim;
        let lc = &self.layers[layer];
        let base = head * self.max_len * hd;
        &lc.v[base..base + lc.rows * hd]
    }

    /// Key row `row` of layer `layer`, re-interleaved across heads.
    /// Gathering accessor for tests and debugging; the forward pass reads
    /// whole heads via [`KvCache::key_head`].
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn key_row(&self, layer: usize, row: usize) -> Vec<f32> {
        self.gather_row(&self.layers[layer].k, row)
    }

    /// Value row `row` of layer `layer`, re-interleaved across heads.
    /// Gathering accessor for tests and debugging; the forward pass reads
    /// whole heads via [`KvCache::value_head`].
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn value_row(&self, layer: usize, row: usize) -> Vec<f32> {
        self.gather_row(&self.layers[layer].v, row)
    }

    fn gather_row(&self, slab: &[f32], row: usize) -> Vec<f32> {
        let hd = self.head_dim;
        let mut out = Vec::with_capacity(self.d_model());
        for h in 0..self.n_heads {
            let src = h * self.max_len * hd + row * hd;
            out.extend_from_slice(&slab[src..src + hd]);
        }
        out
    }

    /// Drops all rows at index `new_len` and beyond. With the slab
    /// layout this is a pure watermark move: no data is touched, and the
    /// next append simply overwrites the abandoned rows.
    ///
    /// # Panics
    ///
    /// Panics if `new_len > self.len()`.
    pub fn truncate(&mut self, new_len: usize) {
        assert!(
            new_len <= self.len,
            "cannot truncate {} to {}",
            self.len,
            new_len
        );
        for l in &mut self.layers {
            l.rows = new_len;
        }
        self.len = new_len;
    }

    /// Keeps rows `[0, prefix_len)` plus the rows at `prefix_len + rel`
    /// for each `rel` in `keep_rel`; drops everything else. This is how
    /// token-tree verification compacts the cache down to the accepted
    /// path (root + verified tokens).
    ///
    /// DFS linearization places ancestors before descendants, so an
    /// accepted path's indices are strictly increasing, and each head
    /// compacts with one forward in-place memmove: destination
    /// `prefix_len + i` never exceeds source `prefix_len + keep_rel[i]`,
    /// and each write lands at or below every source still to be read.
    ///
    /// # Panics
    ///
    /// Panics if `keep_rel` is not strictly increasing, any index is out
    /// of range, or `prefix_len > self.len()`.
    pub fn retain_rows(&mut self, prefix_len: usize, keep_rel: &[usize]) {
        assert!(prefix_len <= self.len, "prefix exceeds cache length");
        assert!(
            keep_rel.windows(2).all(|w| w[0] < w[1]),
            "retained rows must be strictly increasing: {keep_rel:?}"
        );
        if let Some(rel) = keep_rel.last() {
            assert!(
                prefix_len + rel < self.len,
                "retained row {rel} out of range"
            );
        }
        let hd = self.head_dim;
        let cap = self.max_len;
        for l in &mut self.layers {
            for h in 0..self.n_heads {
                let base = h * cap * hd;
                for slab in [&mut l.k, &mut l.v] {
                    let head = &mut slab[base..base + cap * hd];
                    for (i, &rel) in keep_rel.iter().enumerate() {
                        let src = (prefix_len + rel) * hd;
                        let dst = (prefix_len + i) * hd;
                        if src != dst {
                            head.copy_within(src..src + hd, dst);
                        }
                    }
                }
            }
            l.rows = prefix_len + keep_rel.len();
        }
        self.len = prefix_len + keep_rel.len();
    }

    /// Removes every row, keeping capacity.
    pub fn clear(&mut self) {
        self.truncate(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specinfer_tensor::rng::SeededRng;

    /// Appends the rows of `[n, d]` keys `k` and values `v` to `layer`
    /// through the fused form, as one `[n, 2·d]` key‖value buffer.
    fn append(c: &mut KvCache, layer: usize, k: &[f32], v: &[f32]) {
        let d = c.d_model();
        let fused: Vec<f32> = k
            .chunks(d)
            .zip(v.chunks(d))
            .flat_map(|(k, v)| k.iter().chain(v).copied())
            .collect();
        c.append_layer_fused_rows(layer, &fused, 2 * d, 0, d, k.len() / d);
    }

    fn filled_cache() -> KvCache {
        let mut c = KvCache::new(2, 1, 3, 16);
        for row in 0..5 {
            for layer in 0..2 {
                let base = (layer * 100 + row * 10) as f32;
                let k = [base, base + 1.0, base + 2.0];
                append(&mut c, layer, &k, &k.map(|x| -x));
            }
            c.commit_rows(1);
        }
        c
    }

    #[test]
    fn append_and_read_back() {
        let c = filled_cache();
        assert_eq!(c.len(), 5);
        assert_eq!(c.key_row(0, 3), &[30.0, 31.0, 32.0]);
        assert_eq!(c.key_row(1, 2), &[120.0, 121.0, 122.0]);
        assert_eq!(c.value_row(0, 3), &[-30.0, -31.0, -32.0]);
    }

    #[test]
    fn truncate_drops_tail() {
        let mut c = filled_cache();
        c.truncate(2);
        assert_eq!(c.len(), 2);
        assert_eq!(c.key_row(0, 1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn retain_rows_compacts_accepted_path() {
        let mut c = filled_cache();
        // Prefix = 2 rows; rows 2,3,4 are speculated; keep speculated rows
        // 0 and 2 (absolute rows 2 and 4).
        c.retain_rows(2, &[0, 2]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.key_row(0, 2), &[20.0, 21.0, 22.0]);
        assert_eq!(c.key_row(0, 3), &[40.0, 41.0, 42.0]);
        assert_eq!(c.key_row(1, 3), &[140.0, 141.0, 142.0]);
    }

    #[test]
    fn retain_rows_with_empty_keep_is_truncate() {
        let mut c = filled_cache();
        c.retain_rows(3, &[]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn capacity_is_enforced() {
        let mut c = KvCache::new(1, 1, 2, 1);
        append(&mut c, 0, &[0.0; 4], &[0.0; 4]);
    }

    #[test]
    fn clear_empties() {
        let mut c = filled_cache();
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn multi_head_rows_split_into_contiguous_head_slabs() {
        let mut c = KvCache::new(1, 2, 2, 8);
        // Two rows of d_model = 4: head 0 owns columns 0..2, head 1 owns
        // columns 2..4.
        let k = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        append(&mut c, 0, &k, &k.map(|x| x * 10.0));
        c.commit_rows(2);
        assert_eq!(c.key_head(0, 0), &[1.0, 2.0, 5.0, 6.0]);
        assert_eq!(c.key_head(0, 1), &[3.0, 4.0, 7.0, 8.0]);
        assert_eq!(c.value_head(0, 1), &[30.0, 40.0, 70.0, 80.0]);
        assert_eq!(c.key_row(0, 1), &[5.0, 6.0, 7.0, 8.0]);
    }

    /// The old row-major `[len, d_model]` layout, kept as an executable
    /// reference model for the slab cache.
    struct RefCache {
        layers: Vec<(Vec<f32>, Vec<f32>)>,
        d: usize,
        len: usize,
    }

    impl RefCache {
        fn new(n_layers: usize, d: usize) -> Self {
            RefCache {
                layers: vec![(Vec::new(), Vec::new()); n_layers],
                d,
                len: 0,
            }
        }

        fn append(&mut self, layer: usize, k: &[f32], v: &[f32]) {
            self.layers[layer].0.extend_from_slice(k);
            self.layers[layer].1.extend_from_slice(v);
        }

        fn truncate(&mut self, new_len: usize) {
            for (k, v) in &mut self.layers {
                k.truncate(new_len * self.d);
                v.truncate(new_len * self.d);
            }
            self.len = new_len;
        }

        fn retain(&mut self, prefix: usize, keep_rel: &[usize]) {
            for (k, v) in &mut self.layers {
                let mut nk = k[..prefix * self.d].to_vec();
                let mut nv = v[..prefix * self.d].to_vec();
                for &rel in keep_rel {
                    let row = prefix + rel;
                    nk.extend_from_slice(&k[row * self.d..(row + 1) * self.d]);
                    nv.extend_from_slice(&v[row * self.d..(row + 1) * self.d]);
                }
                *k = nk;
                *v = nv;
            }
            self.len = prefix + keep_rel.len();
        }

        fn key_row(&self, layer: usize, row: usize) -> &[f32] {
            &self.layers[layer].0[row * self.d..(row + 1) * self.d]
        }

        fn value_row(&self, layer: usize, row: usize) -> &[f32] {
            &self.layers[layer].1[row * self.d..(row + 1) * self.d]
        }
    }

    fn caches_agree(slab: &KvCache, reference: &RefCache) {
        assert_eq!(slab.len(), reference.len);
        for layer in 0..slab.n_layers() {
            for row in 0..slab.len() {
                assert_eq!(slab.key_row(layer, row), reference.key_row(layer, row));
                assert_eq!(slab.value_row(layer, row), reference.value_row(layer, row));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Random interleavings of append / retain (random accept paths) /
        /// truncate leave the slab cache row-for-row identical to the old
        /// row-major layout.
        #[test]
        fn slab_round_trips_like_row_major_layout(seed in 0u64..10_000) {
            let mut rng = SeededRng::new(seed);
            let (n_layers, n_heads, hd, cap) = (2usize, 2usize, 3usize, 24usize);
            let d = n_heads * hd;
            let mut slab = KvCache::new(n_layers, n_heads, hd, cap);
            let mut reference = RefCache::new(n_layers, d);
            for _ in 0..12 {
                match rng.next_u64() % 3 {
                    0 => {
                        let room = cap - slab.len();
                        if room == 0 {
                            continue;
                        }
                        let n = 1 + rng.below(room.min(5));
                        for layer in 0..n_layers {
                            let k: Vec<f32> =
                                (0..n * d).map(|_| rng.uniform() - 0.5).collect();
                            let v: Vec<f32> =
                                (0..n * d).map(|_| rng.uniform() - 0.5).collect();
                            append(&mut slab, layer, &k, &v);
                            reference.append(layer, &k, &v);
                        }
                        slab.commit_rows(n);
                        reference.len += n;
                    }
                    1 => {
                        let new_len = rng.below(slab.len() + 1);
                        slab.truncate(new_len);
                        reference.truncate(new_len);
                    }
                    _ => {
                        if slab.is_empty() {
                            continue;
                        }
                        let prefix = rng.below(slab.len());
                        let spec = slab.len() - prefix;
                        // A random strictly increasing accept path through
                        // the speculated suffix, as DFS verification
                        // produces.
                        let keep: Vec<usize> =
                            (0..spec).filter(|_| rng.next_u64().is_multiple_of(2)).collect();
                        slab.retain_rows(prefix, &keep);
                        reference.retain(prefix, &keep);
                    }
                }
                caches_agree(&slab, &reference);
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn retain_rows_rejects_an_out_of_order_keep() {
        let mut c = filled_cache();
        c.retain_rows(1, &[3, 0, 2]);
    }
}

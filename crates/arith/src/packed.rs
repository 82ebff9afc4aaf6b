//! Packed-layout bfp GEMM: the fast execution path of the bfp8 datapath.
//!
//! [`crate::quant::BfpMatrix`] keeps its tiles as a `Vec` of per-block
//! heap allocations and its reference kernel re-walks that grid on every
//! one of the O((M/b)·(K/b)·(N/b)) block visits. [`PackedBfp`] stores the
//! same quantized data in two flat, contiguous buffers:
//!
//! * one `i8` mantissa plane, **block-contiguous** — all `b×b` mantissas
//!   of a tile sit next to each other, tiles laid out row-major over the
//!   grid;
//! * one `i8` shared-exponent plane, one entry per tile.
//!
//! The right-hand operand is additionally stored **block-transposed**
//! (within every tile, column `j` of the original becomes a contiguous
//! run), so the innermost int8 dot product of the kernel reads both
//! operands at unit stride — exactly the access pattern the systolic
//! array's column cascade realises in hardware, and the pattern LLVM
//! auto-vectorises.
//!
//! Every GEMM entry point — plain ([`PackedBfp::matmul`]) or with a
//! fused epilogue and requantizing sink — runs one drain: per output
//! tile, the whole exponent-alignment chain over `bk`, then dequantize →
//! epilogue → sink. For the paper's 8×8 blocks the chain is one call into
//! [`crate::kernel8`] (a runtime-dispatched SIMD kernel with i32
//! accumulators held in registers); other block sizes, and chains too
//! long for i32, take a generic i64 loop. No wide scratch tile is written
//! and re-read, and no block is ever copied out of the grid. The result
//! is **bit-identical** to [`crate::quant::BfpMatrix::try_matmul`] and
//! therefore to the `bfp-pu` cycle simulator — the integer tile products
//! are exact, so fusing changes evaluation order only where integer
//! addition is associative. The equivalence is pinned by unit tests here
//! and by the cross-check proptests at the workspace root.
//!
//! Shard-level parallelism lives one layer up (`bfp_core::fastgemm`):
//! every (bi, bj) accumulation chain is independent, so block-rows can be
//! computed concurrently through [`PackedBfp::matmul_rows_into`] without
//! changing a single output bit.

use crate::bfp::shift_right_trunc;
use crate::error::ArithError;
use crate::kernel8::{chain8, ChainIsa, CHAIN8_MAX_KB};
use crate::matrix::MatF32;
use crate::quant::{BfpMatrix, Quantizer};

/// Which operand side a [`PackedBfp`] is laid out for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackSide {
    /// Left operand: tiles stored row-major (rows contiguous).
    Lhs,
    /// Right operand: tiles stored block-transposed (columns contiguous).
    Rhs,
}

/// A quantized matrix in the packed, kernel-ready layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBfp {
    rows: usize,
    cols: usize,
    block: usize,
    block_rows: usize,
    block_cols: usize,
    side: PackSide,
    /// Per-tile shared exponents, grid row-major.
    exps: Vec<i8>,
    /// Block-contiguous mantissa plane; tile `(bi, bj)` occupies
    /// `[(bi·block_cols + bj)·b², …)`. Within a tile: row-major for
    /// [`PackSide::Lhs`], transposed (column-major) for [`PackSide::Rhs`].
    man: Vec<i8>,
}

impl PackedBfp {
    /// Pack a quantized matrix as a left operand.
    pub fn pack_lhs(m: &BfpMatrix) -> PackedBfp {
        Self::pack(m, PackSide::Lhs)
    }

    /// Pack a quantized matrix as a right operand (block-transposed).
    pub fn pack_rhs(m: &BfpMatrix) -> PackedBfp {
        Self::pack(m, PackSide::Rhs)
    }

    /// Quantize and pack in one step.
    pub fn quantize_lhs(q: &Quantizer, m: &MatF32) -> Result<PackedBfp, ArithError> {
        Ok(Self::pack_lhs(&q.quantize(m)?))
    }

    /// Quantize and pack the right operand in one step.
    pub fn quantize_rhs(q: &Quantizer, m: &MatF32) -> Result<PackedBfp, ArithError> {
        Ok(Self::pack_rhs(&q.quantize(m)?))
    }

    /// Fused quantize-and-pack for the left operand: f32 straight to the
    /// block-major i8 mantissa plane, no intermediate [`BfpMatrix`].
    ///
    /// Bit-identical (including error values and which error fires first)
    /// to [`PackedBfp::quantize_lhs`]: both paths share
    /// `Quantizer::tile_exp` / `Quantizer::round_elem` and walk tiles
    /// and elements in the same order. The composed path stays as the
    /// reference the equivalence tests pin this one against.
    pub fn quantize_pack_lhs(q: &Quantizer, m: &MatF32) -> Result<PackedBfp, ArithError> {
        Self::quantize_pack(q, m, PackSide::Lhs)
    }

    /// Fused quantize-and-pack for the right operand (block-transposed);
    /// see [`PackedBfp::quantize_pack_lhs`].
    pub fn quantize_pack_rhs(q: &Quantizer, m: &MatF32) -> Result<PackedBfp, ArithError> {
        Self::quantize_pack(q, m, PackSide::Rhs)
    }

    fn quantize_pack(q: &Quantizer, m: &MatF32, side: PackSide) -> Result<PackedBfp, ArithError> {
        let b = q.block;
        let br = m.rows().div_ceil(b);
        let bc = m.cols().div_ceil(b);
        let bb = b * b;
        let clamp = q.max_mag() as i8;
        let cols = m.cols();
        let data = m.data();
        let mut exps = Vec::with_capacity(br * bc);
        let mut man = vec![0i8; br * bc * bb];
        for bi in 0..br {
            let r0 = bi * b;
            let imax = b.min(m.rows().saturating_sub(r0));
            for bj in 0..bc {
                let c0 = bj * b;
                let exp = match q.tile_exp(m, r0, c0)? {
                    // All-zero tile: canonical exponent 0, mantissas stay 0.
                    None => {
                        exps.push(0);
                        continue;
                    }
                    Some(exp) => exp,
                };
                exps.push(exp);
                let scale = (-(exp as i32) as f64).exp2();
                let jmax = b.min(cols.saturating_sub(c0));
                let dst = &mut man[(bi * bc + bj) * bb..][..bb];
                let mut saturated = 0u64;
                for i in 0..imax {
                    let src = &data[(r0 + i) * cols + c0..][..jmax];
                    for (j, &v) in src.iter().enumerate() {
                        let (qv, sat) = q.round_elem(v, scale, r0 + i, c0 + j, clamp);
                        saturated += sat as u64;
                        dst[match side {
                            PackSide::Lhs => i * b + j,
                            PackSide::Rhs => j * b + i,
                        }] = qv;
                    }
                }
                crate::telemetry::note_saturated(saturated);
                q.saturation.check(saturated)?;
            }
        }
        Ok(PackedBfp {
            rows: m.rows(),
            cols: m.cols(),
            block: b,
            block_rows: br,
            block_cols: bc,
            side,
            exps,
            man,
        })
    }

    fn pack(m: &BfpMatrix, side: PackSide) -> PackedBfp {
        let b = m.block();
        let (br, bc) = m.grid();
        let bb = b * b;
        let mut exps = Vec::with_capacity(br * bc);
        let mut man = vec![0i8; br * bc * bb];
        for bi in 0..br {
            for bj in 0..bc {
                let g = m.block_at(bi, bj);
                exps.push(g.exp);
                let dst = &mut man[(bi * bc + bj) * bb..(bi * bc + bj + 1) * bb];
                match side {
                    PackSide::Lhs => dst.copy_from_slice(&g.man),
                    PackSide::Rhs => {
                        // Block-transpose: column j becomes run j.
                        for j in 0..b {
                            for i in 0..b {
                                dst[j * b + i] = g.man[i * b + j];
                            }
                        }
                    }
                }
            }
        }
        PackedBfp {
            rows: m.rows(),
            cols: m.cols(),
            block: b,
            block_rows: br,
            block_cols: bc,
            side,
            exps,
            man,
        }
    }

    /// Logical (unpadded) row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical (unpadded) column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Block side length.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Grid dimensions in blocks `(block_rows, block_cols)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.block_rows, self.block_cols)
    }

    /// Which side this packing is for.
    pub fn side(&self) -> PackSide {
        self.side
    }

    /// Approximate heap footprint in bytes (mantissas + exponents).
    pub fn bytes(&self) -> usize {
        self.man.len() + self.exps.len()
    }

    /// The block-contiguous mantissa plane (see struct docs for layout).
    /// Exposed for the checksum-augmented kernel in [`crate::abft`].
    pub(crate) fn man_plane(&self) -> &[i8] {
        &self.man
    }

    /// The per-tile shared-exponent plane, grid row-major.
    pub(crate) fn exp_plane(&self) -> &[i8] {
        &self.exps
    }

    /// Dequantize back to `f32`, one pass per block (padding discarded).
    /// Bit-identical to [`BfpMatrix::dequantize`] on the same data.
    pub fn dequantize(&self) -> MatF32 {
        let b = self.block;
        let bb = b * b;
        let cols = self.cols;
        let mut out = MatF32::zeros(self.rows, self.cols);
        let data = out.data_mut();
        for bi in 0..self.block_rows {
            let imax = b.min(self.rows - bi * b);
            for bj in 0..self.block_cols {
                let jmax = b.min(self.cols - bj * b);
                let tile = &self.man[(bi * self.block_cols + bj) * bb..][..bb];
                let scale = (self.exps[bi * self.block_cols + bj] as f64).exp2();
                for i in 0..imax {
                    let dst = &mut data[(bi * b + i) * cols + bj * b..][..jmax];
                    match self.side {
                        PackSide::Lhs => {
                            for (j, o) in dst.iter_mut().enumerate() {
                                *o = (tile[i * b + j] as f64 * scale) as f32;
                            }
                        }
                        PackSide::Rhs => {
                            for (j, o) in dst.iter_mut().enumerate() {
                                *o = (tile[j * b + i] as f64 * scale) as f32;
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Validate that `self · rhs` is a well-formed packed GEMM.
    pub fn check_compatible(&self, rhs: &PackedBfp) -> Result<(), ArithError> {
        if self.side != PackSide::Lhs || rhs.side != PackSide::Rhs {
            return Err(ArithError::DimensionMismatch {
                got: format!("lhs packed {:?}, rhs packed {:?}", self.side, rhs.side),
                expected: "lhs packed Lhs, rhs packed Rhs".into(),
            });
        }
        if self.cols != rhs.rows {
            return Err(ArithError::DimensionMismatch {
                got: format!(
                    "lhs {}x{}, rhs {}x{}",
                    self.rows, self.cols, rhs.rows, rhs.cols
                ),
                expected: "lhs cols == rhs rows".into(),
            });
        }
        if self.block != rhs.block {
            return Err(ArithError::DimensionMismatch {
                got: format!("block {} vs {}", self.block, rhs.block),
                expected: "matching block sizes".into(),
            });
        }
        Ok(())
    }

    /// Packed GEMM: bit-identical to [`BfpMatrix::try_matmul`] on the same
    /// quantized operands, with zero per-block copies.
    pub fn matmul(&self, rhs: &PackedBfp) -> Result<MatF32, ArithError> {
        self.matmul_epilogue(rhs, no_epilogue)
    }

    /// Packed GEMM with block-rows sharded across up to `threads` scoped
    /// threads. Pure mechanism: no size heuristics — callers decide when
    /// forking is worth it (`bfp_core::fastgemm` applies a MAC threshold,
    /// the transformer engine its own policy). `threads <= 1` runs the
    /// serial kernel.
    ///
    /// Every (bi, bj) exponent-alignment chain is independent and each
    /// shard writes a disjoint slice of the output, so the result is
    /// bit-identical to [`PackedBfp::matmul`] for any thread count.
    pub fn matmul_parallel(&self, rhs: &PackedBfp, threads: usize) -> Result<MatF32, ArithError> {
        let shards = threads.clamp(1, self.block_rows.max(1));
        self.matmul_epilogue_parallel(rhs, threads, &mut vec![no_epilogue; shards])
    }

    /// Compute output block-rows `bi_lo..bi_hi` into `out_rows`, the
    /// row-major `f32` buffer covering exactly output rows
    /// `bi_lo·b .. min(bi_hi·b, rows)` (full logical width).
    ///
    /// Each (bi, bj) exponent-alignment chain is independent, so disjoint
    /// block-row ranges can run on different threads and still produce
    /// bit-identical results to the serial kernel — `bfp_core::fastgemm`
    /// builds the deterministic parallel GEMM on top of this.
    ///
    /// # Panics
    /// Panics if the range or buffer length is inconsistent; call
    /// [`PackedBfp::check_compatible`] first for operand validation.
    pub fn matmul_rows_into(&self, rhs: &PackedBfp, bi_lo: usize, bi_hi: usize, out_rows: &mut [f32]) {
        let b = self.block;
        debug_assert!(self.check_compatible(rhs).is_ok());
        assert!(bi_lo <= bi_hi && bi_hi <= self.block_rows, "block-row range");
        let r0 = bi_lo * b;
        let rows_here = (bi_hi * b).min(self.rows).saturating_sub(r0);
        assert_eq!(
            out_rows.len(),
            rows_here * rhs.cols,
            "output shard must cover its block rows exactly"
        );
        let sink = &mut store_rows(out_rows, r0, rhs.cols);
        self.fused_rows(rhs, bi_lo, bi_hi, &mut no_epilogue, sink)
            .expect("storing rows cannot fail");
    }
}

/// Geometry of one hot output tile as seen by a fused epilogue: the tile
/// is anchored at `(r0, c0)` of the logical output matrix and only its
/// `imax × jmax` top-left region holds real (unpadded) elements.
#[derive(Debug, Clone, Copy)]
pub struct EpilogueCtx {
    /// Absolute output row of the tile's first element.
    pub r0: usize,
    /// Absolute output column of the tile's first element.
    pub c0: usize,
    /// Valid rows in this tile (`<= block`).
    pub imax: usize,
    /// Valid columns in this tile (`<= block`).
    pub jmax: usize,
    /// Block side length; the tile buffer is `block × block` row-major.
    pub b: usize,
}

impl PackedBfp {
    /// Packed GEMM with a fused per-tile epilogue: each output tile is
    /// dequantized into a `b×b` scratch buffer, handed to `epi` while
    /// still register/L1-hot, and only then written to the f32 output.
    ///
    /// The GEMM bits entering the epilogue are identical to
    /// [`PackedBfp::matmul`]'s output (same accumulation chain, same
    /// `(acc · 2^exp) as f32` dequantize), so an element-wise epilogue —
    /// bias add, activation, residual add — produces exactly the bits the
    /// composed GEMM-then-separate-pass pipeline produces, without
    /// materialising the intermediate matrix twice. Tiles are visited in
    /// the same `(bi, bj)` row-major order as the serial kernel.
    ///
    /// `K = 0` chains still run the epilogue over an all-zero tile, just
    /// as the composed path applies its element passes to the zero matrix.
    pub fn matmul_epilogue<E>(&self, rhs: &PackedBfp, mut epi: E) -> Result<MatF32, ArithError>
    where
        E: FnMut(&mut [f32], &EpilogueCtx),
    {
        self.check_compatible(rhs)?;
        let mut out = MatF32::zeros(self.rows, rhs.cols);
        {
            let sink = &mut store_rows(out.data_mut(), 0, rhs.cols);
            self.fused_rows(rhs, 0, self.block_rows, &mut epi, sink)?;
        }
        Ok(out)
    }

    /// [`PackedBfp::matmul_epilogue`] with block-row shards on scoped
    /// threads. `epis` supplies one independent epilogue per shard (so
    /// stateful epilogues — op-counting VPU emulations — never race);
    /// fewer shards than epilogues is fine, the extras stay unused.
    /// Bit-identical to the serial fused kernel for any thread count
    /// because every `(bi, bj)` chain is independent and each shard owns a
    /// disjoint output slice.
    pub fn matmul_epilogue_parallel<E>(
        &self,
        rhs: &PackedBfp,
        threads: usize,
        epis: &mut [E],
    ) -> Result<MatF32, ArithError>
    where
        E: FnMut(&mut [f32], &EpilogueCtx) + Send,
    {
        self.check_compatible(rhs)?;
        let b = self.block;
        let mb = self.block_rows;
        let threads = threads.min(mb.max(1)).min(epis.len().max(1));
        if threads <= 1 {
            let epi = epis.first_mut().expect("at least one epilogue");
            return self.matmul_epilogue(rhs, epi);
        }
        let mut out = MatF32::zeros(self.rows, rhs.cols);
        let rows = self.rows;
        let cols = rhs.cols;
        let per = mb.div_ceil(threads);
        let mut shards: Vec<(usize, usize, &mut [f32], &mut E)> = Vec::with_capacity(threads);
        let mut rest = out.data_mut();
        let mut epi_rest = epis;
        for t in 0..threads {
            let lo = (t * per).min(mb);
            let hi = ((t + 1) * per).min(mb);
            if lo >= hi {
                break;
            }
            let shard_rows = (hi * b).min(rows) - lo * b;
            let (head, tail) = rest.split_at_mut(shard_rows * cols);
            let (epi, etail) = epi_rest.split_first_mut().expect("one epilogue per shard");
            rest = tail;
            epi_rest = etail;
            shards.push((lo, hi, head, epi));
        }
        let mut results: Vec<Result<(), ArithError>> = Vec::new();
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|(lo, hi, buf, epi)| {
                    scope.spawn(move |_| {
                        self.fused_rows(rhs, lo, hi, epi, &mut store_rows(buf, lo * b, cols))
                    })
                })
                .collect();
            results = handles.into_iter().map(|h| h.join().expect("shard")).collect();
        })
        .expect("fused GEMM shard thread panicked");
        // Errors resolve in shard (block-row) order, matching the serial
        // kernel's first-error semantics.
        for r in results {
            r?;
        }
        Ok(out)
    }

    /// Packed GEMM with a fused epilogue whose output is **requantized in
    /// place** into a fresh left-operand [`PackedBfp`]: each post-epilogue
    /// tile runs the quantizer's tile scan (`Quantizer::tile_exp` order and
    /// semantics, via its slice twin) and mantissa rounding while still
    /// hot, writing straight into the block-major mantissa plane the next
    /// GEMM consumes. The f32 materialize → re-scan → re-pack round trip
    /// of the composed path disappears, yet the result is bit-identical to
    /// `matmul` → epilogue over the full matrix → `quantize_pack_lhs` —
    /// including which non-finite/saturation error fires first, because
    /// tiles are visited in the same row-major order and the rounding
    /// helpers are shared.
    pub fn matmul_epilogue_requant<E>(
        &self,
        rhs: &PackedBfp,
        q: &Quantizer,
        mut epi: E,
    ) -> Result<PackedBfp, ArithError>
    where
        E: FnMut(&mut [f32], &EpilogueCtx),
    {
        self.check_compatible(rhs)?;
        if q.block != self.block {
            return Err(ArithError::DimensionMismatch {
                got: format!("quantizer block {} vs operand block {}", q.block, self.block),
                expected: "matching block sizes".into(),
            });
        }
        let b = self.block;
        let bb = b * b;
        let br = self.block_rows;
        let bc = rhs.block_cols;
        let clamp = q.max_mag() as i8;
        let mut exps = vec![0i8; br * bc];
        let mut man = vec![0i8; br * bc * bb];
        {
            let exps = &mut exps[..];
            let man = &mut man[..];
            self.fused_rows(rhs, 0, br, &mut epi, &mut |tile: &mut [f32], ctx: &EpilogueCtx| {
                let (bi, bj) = (ctx.r0 / b, ctx.c0 / b);
                requant_tile(q, tile, ctx, clamp, &mut exps[bi * bc + bj], &mut man
                    [(bi * bc + bj) * bb..][..bb])
            })?;
        }
        Ok(PackedBfp {
            rows: self.rows,
            cols: rhs.cols,
            block: b,
            block_rows: br,
            block_cols: bc,
            side: PackSide::Lhs,
            exps,
            man,
        })
    }

    /// [`PackedBfp::matmul_epilogue_requant`] with block-row shards on
    /// scoped threads (one epilogue per shard, like
    /// [`PackedBfp::matmul_epilogue_parallel`]). The output mantissa plane
    /// is tile-major, so a block-row shard owns a contiguous disjoint
    /// slice of it; errors resolve in shard order, so the first-error
    /// semantics match the serial kernel.
    #[allow(clippy::type_complexity)]
    pub fn matmul_epilogue_requant_parallel<E>(
        &self,
        rhs: &PackedBfp,
        q: &Quantizer,
        threads: usize,
        epis: &mut [E],
    ) -> Result<PackedBfp, ArithError>
    where
        E: FnMut(&mut [f32], &EpilogueCtx) + Send,
    {
        self.check_compatible(rhs)?;
        let b = self.block;
        let mb = self.block_rows;
        let threads = threads.min(mb.max(1)).min(epis.len().max(1));
        if threads <= 1 {
            let epi = epis.first_mut().expect("at least one epilogue");
            return self.matmul_epilogue_requant(rhs, q, epi);
        }
        if q.block != self.block {
            return Err(ArithError::DimensionMismatch {
                got: format!("quantizer block {} vs operand block {}", q.block, self.block),
                expected: "matching block sizes".into(),
            });
        }
        let bb = b * b;
        let bc = rhs.block_cols;
        let clamp = q.max_mag() as i8;
        let mut exps = vec![0i8; mb * bc];
        let mut man = vec![0i8; mb * bc * bb];
        let per = mb.div_ceil(threads);
        let mut shards: Vec<(usize, usize, &mut [i8], &mut [i8], &mut E)> = Vec::new();
        let mut exp_rest = &mut exps[..];
        let mut man_rest = &mut man[..];
        let mut epi_rest = epis;
        for t in 0..threads {
            let lo = (t * per).min(mb);
            let hi = ((t + 1) * per).min(mb);
            if lo >= hi {
                break;
            }
            let tiles = (hi - lo) * bc;
            let (ehead, etail) = exp_rest.split_at_mut(tiles);
            let (mhead, mtail) = man_rest.split_at_mut(tiles * bb);
            let (epi, epitail) = epi_rest.split_first_mut().expect("one epilogue per shard");
            exp_rest = etail;
            man_rest = mtail;
            epi_rest = epitail;
            shards.push((lo, hi, ehead, mhead, epi));
        }
        let mut results: Vec<Result<(), ArithError>> = Vec::new();
        crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|(lo, hi, exps_s, man_s, epi)| {
                    scope.spawn(move |_| {
                        self.fused_rows(rhs, lo, hi, epi, &mut |tile: &mut [f32],
                                                                ctx: &EpilogueCtx| {
                            let (bi, bj) = (ctx.r0 / b, ctx.c0 / b);
                            let t = (bi - lo) * bc + bj;
                            requant_tile(
                                q,
                                tile,
                                ctx,
                                clamp,
                                &mut exps_s[t],
                                &mut man_s[t * bb..][..bb],
                            )
                        })
                    })
                })
                .collect();
            results = handles.into_iter().map(|h| h.join().expect("shard")).collect();
        })
        .expect("fused GEMM shard thread panicked");
        for r in results {
            r?;
        }
        Ok(PackedBfp {
            rows: self.rows,
            cols: rhs.cols,
            block: b,
            block_rows: mb,
            block_cols: bc,
            side: PackSide::Lhs,
            exps,
            man,
        })
    }

    /// Shared GEMM drain: computes output tiles `bi_lo..bi_hi` in
    /// `(bi, bj)` row-major order, dequantizes each into a `b×b` scratch
    /// buffer, applies `epi` to the hot tile, then hands it to `sink`.
    /// The plain GEMM is this drain with no epilogue and a row-copy sink,
    /// so fused and unfused outputs share one accumulation chain.
    fn fused_rows<E, S>(
        &self,
        rhs: &PackedBfp,
        bi_lo: usize,
        bi_hi: usize,
        epi: &mut E,
        sink: &mut S,
    ) -> Result<(), ArithError>
    where
        E: FnMut(&mut [f32], &EpilogueCtx),
        S: FnMut(&mut [f32], &EpilogueCtx) -> Result<(), ArithError>,
    {
        if self.block == 8 && self.block_cols < CHAIN8_MAX_KB {
            return self.fused_rows_b8(ChainIsa::best(), rhs, bi_lo, bi_hi, epi, sink);
        }
        self.fused_rows_generic(rhs, bi_lo, bi_hi, epi, sink)
    }

    /// The drain for any block size and chain length: i64 accumulators
    /// and the reference kernel's shift/truncate chain, element-wise.
    fn fused_rows_generic<E, S>(
        &self,
        rhs: &PackedBfp,
        bi_lo: usize,
        bi_hi: usize,
        epi: &mut E,
        sink: &mut S,
    ) -> Result<(), ArithError>
    where
        E: FnMut(&mut [f32], &EpilogueCtx),
        S: FnMut(&mut [f32], &EpilogueCtx) -> Result<(), ArithError>,
    {
        let b = self.block;
        let bb = b * b;
        let kb = self.block_cols;
        let nb = rhs.block_cols;
        let mut acc = vec![0i64; bb];
        let mut tile = vec![0f32; bb];
        for bi in bi_lo..bi_hi {
            let imax = b.min(self.rows - bi * b);
            for bj in 0..nb {
                let jmax = b.min(rhs.cols - bj * b);
                let mut acc_exp = 0i32;
                let mut first = true;
                for bk in 0..kb {
                    let x = &self.man[(bi * kb + bk) * bb..][..bb];
                    let y = &rhs.man[(bk * nb + bj) * bb..][..bb];
                    let pexp = self.exps[bi * kb + bk] as i32 + rhs.exps[bk * nb + bj] as i32;
                    if first {
                        first = false;
                        acc_exp = pexp;
                        for i in 0..b {
                            let xr = &x[i * b..][..b];
                            for j in 0..b {
                                acc[i * b + j] = dot_i8(xr, &y[j * b..][..b]) as i64;
                            }
                        }
                    } else if pexp >= acc_exp {
                        let sh = (pexp - acc_exp) as u32;
                        acc_exp = pexp;
                        for i in 0..b {
                            let xr = &x[i * b..][..b];
                            for j in 0..b {
                                let a = &mut acc[i * b + j];
                                *a = shift_right_trunc(*a, sh) + dot_i8(xr, &y[j * b..][..b]) as i64;
                            }
                        }
                    } else {
                        let sh = (acc_exp - pexp) as u32;
                        for i in 0..b {
                            let xr = &x[i * b..][..b];
                            for j in 0..b {
                                acc[i * b + j] +=
                                    shift_right_trunc(dot_i8(xr, &y[j * b..][..b]) as i64, sh);
                            }
                        }
                    }
                }
                let ctx = EpilogueCtx {
                    r0: bi * b,
                    c0: bj * b,
                    imax,
                    jmax,
                    b,
                };
                if first {
                    // K = 0: the reference kernel leaves zeros; the epilogue
                    // still runs, as the composed path applies its element
                    // passes to the zero matrix.
                    for i in 0..imax {
                        tile[i * b..][..jmax].fill(0.0);
                    }
                } else {
                    let scale = (acc_exp as f64).exp2();
                    for i in 0..imax {
                        let ar = &acc[i * b..][..b];
                        let tr = &mut tile[i * b..][..jmax];
                        for (o, &a) in tr.iter_mut().zip(ar.iter()) {
                            *o = (a as f64 * scale) as f32;
                        }
                    }
                }
                epi(&mut tile, &ctx);
                sink(&mut tile, &ctx)?;
            }
        }
        Ok(())
    }

    /// The paper-shaped `b == 8` drain: each output tile's whole chain
    /// runs in the `isa` variant of [`chain8`] (i32 accumulators, exact
    /// for chains shorter than [`CHAIN8_MAX_KB`]), then one dequantize →
    /// epilogue → sink pass. Bit-identical to the generic drain.
    fn fused_rows_b8<E, S>(
        &self,
        isa: ChainIsa,
        rhs: &PackedBfp,
        bi_lo: usize,
        bi_hi: usize,
        epi: &mut E,
        sink: &mut S,
    ) -> Result<(), ArithError>
    where
        E: FnMut(&mut [f32], &EpilogueCtx),
        S: FnMut(&mut [f32], &EpilogueCtx) -> Result<(), ArithError>,
    {
        const B: usize = 8;
        const BB: usize = 64;
        let kb = self.block_cols;
        let nb = rhs.block_cols;
        let mut acc = [0i32; BB];
        let mut tile = [0f32; BB];
        for bi in bi_lo..bi_hi {
            let imax = B.min(self.rows - bi * B);
            let x = &self.man[bi * kb * BB..][..kb * BB];
            let xe = &self.exps[bi * kb..][..kb];
            for bj in 0..nb {
                let jmax = B.min(rhs.cols - bj * B);
                match chain8(isa, x, xe, &rhs.man, &rhs.exps, bj, nb, &mut acc) {
                    Some(acc_exp) => {
                        let scale = (acc_exp as f64).exp2();
                        for t in 0..imax * B {
                            tile[t] = (acc[t] as f64 * scale) as f32;
                        }
                    }
                    // K = 0: zeros, and the epilogue still runs (see the
                    // generic drain).
                    None => tile[..imax * B].fill(0.0),
                }
                let ctx = EpilogueCtx {
                    r0: bi * B,
                    c0: bj * B,
                    imax,
                    jmax,
                    b: B,
                };
                epi(&mut tile, &ctx);
                sink(&mut tile, &ctx)?;
            }
        }
        Ok(())
    }
}

/// The plain GEMM's epilogue: none.
fn no_epilogue(_: &mut [f32], _: &EpilogueCtx) {}

/// The plain GEMM's sink: copy each finished tile into `out`, the
/// row-major buffer of output rows `r0..`, `cols` wide.
fn store_rows(
    out: &mut [f32],
    r0: usize,
    cols: usize,
) -> impl FnMut(&mut [f32], &EpilogueCtx) -> Result<(), ArithError> + '_ {
    move |tile, ctx| {
        for i in 0..ctx.imax {
            out[(ctx.r0 + i - r0) * cols + ctx.c0..][..ctx.jmax]
                .copy_from_slice(&tile[i * ctx.b..][..ctx.jmax]);
        }
        Ok(())
    }
}

/// Requantize one hot post-epilogue tile into its slot of a packed LHS
/// plane: the quantizer's tile scan + rounding, per-tile saturation
/// accounting included, exactly as `PackedBfp::quantize_pack` does for a
/// materialised matrix tile.
fn requant_tile(
    q: &Quantizer,
    tile: &[f32],
    ctx: &EpilogueCtx,
    clamp: i8,
    exp_out: &mut i8,
    man_out: &mut [i8],
) -> Result<(), ArithError> {
    let b = ctx.b;
    let exp = match q.tile_exp_slice(tile, ctx.r0, ctx.c0, ctx.imax, ctx.jmax)? {
        // All-zero tile: canonical exponent 0, mantissas stay 0.
        None => {
            *exp_out = 0;
            return Ok(());
        }
        Some(exp) => exp,
    };
    *exp_out = exp;
    let scale = (-(exp as i32) as f64).exp2();
    let mut saturated = 0u64;
    for i in 0..ctx.imax {
        let src = &tile[i * b..][..ctx.jmax];
        for (j, &v) in src.iter().enumerate() {
            let (qv, sat) = q.round_elem(v, scale, ctx.r0 + i, ctx.c0 + j, clamp);
            saturated += sat as u64;
            man_out[i * b + j] = qv;
        }
    }
    crate::telemetry::note_saturated(saturated);
    q.saturation.check(saturated)
}

/// Unit-stride int8 dot product; the paper-shaped 8-element case lowers to
/// a fixed-size loop LLVM fully vectorises.
#[inline(always)]
pub(crate) fn dot_i8(x: &[i8], y: &[i8]) -> i32 {
    if let (Ok(x8), Ok(y8)) = (
        <&[i8; 8]>::try_from(x),
        <&[i8; 8]>::try_from(y),
    ) {
        let mut s = 0i32;
        for k in 0..8 {
            s += x8[k] as i32 * y8[k] as i32;
        }
        s
    } else {
        x.iter()
            .zip(y.iter())
            .map(|(&a, &b)| a as i32 * b as i32)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(rows: usize, cols: usize, seed: u32) -> MatF32 {
        let s = seed as f32;
        MatF32::from_fn(rows, cols, |i, j| {
            ((i as f32 * 0.37 + j as f32 * 0.23 + s).sin()) * (1.0 + ((i * cols + j) % 11) as f32)
        })
    }

    /// A matrix whose tiles land on very different block exponents, so the
    /// alignment chain truncates (the path where evaluation-order bugs
    /// would show up as bit differences).
    fn spiky(rows: usize, cols: usize) -> MatF32 {
        MatF32::from_fn(rows, cols, |i, j| {
            let base = ((i * 31 + j * 7) % 13) as f32 - 6.0;
            match (i / 8 + j / 8) % 3 {
                0 => base * 1024.0,
                1 => base * 0.001,
                _ => base,
            }
        })
    }

    fn assert_bits_eq(a: &MatF32, b: &MatF32) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert_eq!(
                    a.get(i, j).to_bits(),
                    b.get(i, j).to_bits(),
                    "({i},{j}): {} vs {}",
                    a.get(i, j),
                    b.get(i, j)
                );
            }
        }
    }

    #[test]
    fn packed_matmul_is_bit_identical_to_reference_kernel() {
        let q = Quantizer::paper();
        for (m, k, n, seed) in [(16, 16, 16, 1), (24, 40, 8, 2), (64, 32, 48, 3)] {
            let a = wave(m, k, seed);
            let b = wave(k, n, seed + 10);
            let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
            let want = qa.try_matmul(&qb).unwrap();
            let got = PackedBfp::pack_lhs(&qa)
                .matmul(&PackedBfp::pack_rhs(&qb))
                .unwrap();
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn packed_matmul_non_multiple_of_block_shapes() {
        let q = Quantizer::paper();
        for (m, k, n) in [(11, 13, 7), (1, 9, 17), (8, 1, 1), (23, 24, 25)] {
            let a = wave(m, k, 5);
            let b = wave(k, n, 6);
            let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
            let got = PackedBfp::pack_lhs(&qa)
                .matmul(&PackedBfp::pack_rhs(&qb))
                .unwrap();
            assert_bits_eq(&got, &qa.try_matmul(&qb).unwrap());
        }
    }

    #[test]
    fn packed_matmul_mixed_block_exponents_truncate_identically() {
        let q = Quantizer::paper();
        let a = spiky(24, 32);
        let b = spiky(32, 16);
        let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
        let got = PackedBfp::pack_lhs(&qa)
            .matmul(&PackedBfp::pack_rhs(&qb))
            .unwrap();
        assert_bits_eq(&got, &qa.try_matmul(&qb).unwrap());
    }

    #[test]
    fn packed_matmul_generic_block_sizes() {
        for blk in [4usize, 8, 16] {
            let q = Quantizer::with_block(blk);
            let a = spiky(19, 21);
            let b = spiky(21, 10);
            let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
            let got = PackedBfp::pack_lhs(&qa)
                .matmul(&PackedBfp::pack_rhs(&qb))
                .unwrap();
            assert_bits_eq(&got, &qa.try_matmul(&qb).unwrap());
        }
    }

    #[test]
    fn matmul_rows_into_shards_agree_with_full_kernel() {
        let q = Quantizer::paper();
        let a = spiky(40, 24);
        let b = spiky(24, 17);
        let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
        let (pa, pb) = (PackedBfp::pack_lhs(&qa), PackedBfp::pack_rhs(&qb));
        let full = pa.matmul(&pb).unwrap();
        // Recompute in three uneven shards.
        let mut out = MatF32::zeros(40, 17);
        let cols = out.cols();
        for (lo, hi) in [(0usize, 2usize), (2, 3), (3, 5)] {
            let r0 = lo * 8;
            let r1 = (hi * 8).min(40);
            pa.matmul_rows_into(&pb, lo, hi, &mut out.data_mut()[r0 * cols..r1 * cols]);
        }
        assert_bits_eq(&out, &full);
    }

    #[test]
    fn dequantize_matches_grid_dequantize() {
        let q = Quantizer::paper();
        let m = spiky(27, 13);
        let qm = q.quantize(&m).unwrap();
        let want = qm.dequantize();
        assert_bits_eq(&PackedBfp::pack_lhs(&qm).dequantize(), &want);
        assert_bits_eq(&PackedBfp::pack_rhs(&qm).dequantize(), &want);
    }

    #[test]
    fn side_and_shape_mismatches_are_typed_errors() {
        let q = Quantizer::paper();
        let a = PackedBfp::quantize_lhs(&q, &wave(16, 16, 1)).unwrap();
        let b = PackedBfp::quantize_rhs(&q, &wave(16, 16, 2)).unwrap();
        // Wrong sides.
        assert!(matches!(
            b.matmul(&b),
            Err(ArithError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            a.matmul(&a.clone()),
            Err(ArithError::DimensionMismatch { .. })
        ));
        // Inner-dimension mismatch.
        let skinny = PackedBfp::quantize_rhs(&q, &wave(8, 8, 3)).unwrap();
        assert!(matches!(
            a.matmul(&skinny),
            Err(ArithError::DimensionMismatch { .. })
        ));
        // Block-size mismatch.
        let other = PackedBfp::quantize_rhs(&Quantizer::with_block(4), &wave(16, 8, 4)).unwrap();
        assert!(matches!(
            a.matmul(&other),
            Err(ArithError::DimensionMismatch { .. })
        ));
        // And the happy path still works.
        assert!(a.matmul(&b).is_ok());
    }

    #[test]
    fn fused_quantize_pack_matches_composed_path() {
        use crate::quant::RoundMode;
        for round in [RoundMode::NearestEven, RoundMode::Truncate, RoundMode::Stochastic] {
            let q = Quantizer {
                round,
                ..Quantizer::paper()
            };
            for (r, c, seed) in [(16, 16, 1), (11, 29, 2), (8, 8, 3), (1, 1, 4), (40, 7, 5)] {
                let m = wave(r, c, seed);
                assert_eq!(
                    PackedBfp::quantize_pack_lhs(&q, &m).unwrap(),
                    PackedBfp::quantize_lhs(&q, &m).unwrap(),
                    "lhs {r}x{c} {round:?}"
                );
                assert_eq!(
                    PackedBfp::quantize_pack_rhs(&q, &m).unwrap(),
                    PackedBfp::quantize_rhs(&q, &m).unwrap(),
                    "rhs {r}x{c} {round:?}"
                );
            }
        }
    }

    #[test]
    fn fused_quantize_pack_handles_zero_tiles_and_spiky_exponents() {
        let q = Quantizer::paper();
        let mut m = spiky(24, 24);
        // Zero out a whole tile plus a partial edge region.
        for i in 8..16 {
            for j in 0..8 {
                m.set(i, j, 0.0);
            }
        }
        assert_eq!(
            PackedBfp::quantize_pack_lhs(&q, &m).unwrap(),
            PackedBfp::quantize_lhs(&q, &m).unwrap()
        );
        assert_eq!(
            PackedBfp::quantize_pack_rhs(&q, &m).unwrap(),
            PackedBfp::quantize_rhs(&q, &m).unwrap()
        );
    }

    #[test]
    fn fused_quantize_pack_reports_identical_errors() {
        let q = Quantizer::paper();
        let mut m = wave(17, 19, 7);
        m.set(9, 13, f32::NAN);
        let want = format!("{:?}", q.quantize(&m).unwrap_err());
        assert_eq!(
            format!("{:?}", PackedBfp::quantize_pack_lhs(&q, &m).unwrap_err()),
            want
        );
        assert_eq!(
            format!("{:?}", PackedBfp::quantize_pack_rhs(&q, &m).unwrap_err()),
            want
        );
    }

    #[test]
    fn fused_quantize_pack_matmul_is_bit_identical() {
        let q = Quantizer::paper();
        let a = spiky(40, 24);
        let b = spiky(24, 17);
        let got = PackedBfp::quantize_pack_lhs(&q, &a)
            .unwrap()
            .matmul(&PackedBfp::quantize_pack_rhs(&q, &b).unwrap())
            .unwrap();
        let want = q
            .quantize(&a)
            .unwrap()
            .try_matmul(&q.quantize(&b).unwrap())
            .unwrap();
        assert_bits_eq(&got, &want);
    }

    #[test]
    fn matmul_parallel_is_bit_identical_for_any_thread_count() {
        let q = Quantizer::paper();
        let a = spiky(40, 24);
        let b = spiky(24, 17);
        let pa = PackedBfp::quantize_pack_lhs(&q, &a).unwrap();
        let pb = PackedBfp::quantize_pack_rhs(&q, &b).unwrap();
        let want = pa.matmul(&pb).unwrap();
        for threads in [0usize, 1, 2, 3, 5, 64] {
            assert_bits_eq(&pa.matmul_parallel(&pb, threads).unwrap(), &want);
        }
        assert!(matches!(
            pb.matmul_parallel(&pb, 4),
            Err(ArithError::DimensionMismatch { .. })
        ));
    }

    /// The composed oracle for the fused kernels: full GEMM, then the same
    /// element-wise epilogue applied over the materialised matrix.
    fn composed_epilogue(
        pa: &PackedBfp,
        pb: &PackedBfp,
        epi: impl Fn(f32, usize, usize) -> f32,
    ) -> MatF32 {
        let out = pa.matmul(pb).unwrap();
        MatF32::from_fn(out.rows(), out.cols(), |i, j| epi(out.get(i, j), i, j))
    }

    #[test]
    fn fused_epilogue_matches_composed_pass() {
        let q = Quantizer::paper();
        let bias: Vec<f32> = (0..17).map(|j| (j as f32 * 0.3).sin()).collect();
        for (m, k, n) in [(40, 24, 17), (8, 8, 8), (11, 13, 7), (1, 9, 16)] {
            let a = spiky(m, k);
            let b = spiky(k, n);
            let pa = PackedBfp::quantize_pack_lhs(&q, &a).unwrap();
            let pb = PackedBfp::quantize_pack_rhs(&q, &b).unwrap();
            let want = composed_epilogue(&pa, &pb, |v, _i, j| (v + bias[j]).tanh());
            let got = pa
                .matmul_epilogue(&pb, |tile: &mut [f32], ctx: &EpilogueCtx| {
                    for i in 0..ctx.imax {
                        let row = &mut tile[i * ctx.b..][..ctx.jmax];
                        for (j, v) in row.iter_mut().enumerate() {
                            *v = (*v + bias[ctx.c0 + j]).tanh();
                        }
                    }
                })
                .unwrap();
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn fused_epilogue_parallel_is_bit_identical() {
        let q = Quantizer::paper();
        let a = spiky(40, 24);
        let b = spiky(24, 17);
        let pa = PackedBfp::quantize_pack_lhs(&q, &a).unwrap();
        let pb = PackedBfp::quantize_pack_rhs(&q, &b).unwrap();
        let epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
            for i in 0..ctx.imax {
                for v in &mut tile[i * ctx.b..][..ctx.jmax] {
                    *v = v.mul_add(0.5, 1.0);
                }
            }
        };
        let want = pa.matmul_epilogue(&pb, epi).unwrap();
        for threads in [1usize, 2, 3, 5, 64] {
            let mut epis: Vec<_> = (0..threads).map(|_| epi).collect();
            let got = pa.matmul_epilogue_parallel(&pb, threads, &mut epis).unwrap();
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn fused_requant_matches_composed_quantize_pack_across_round_modes() {
        use crate::quant::RoundMode;
        let bias: Vec<f32> = (0..32).map(|j| (j as f32 * 0.7).cos() * 0.1).collect();
        for round in [RoundMode::NearestEven, RoundMode::Truncate, RoundMode::Stochastic] {
            let q = Quantizer {
                round,
                ..Quantizer::paper()
            };
            for (m, k, n) in [(40, 24, 17), (8, 8, 8), (23, 16, 32), (1, 8, 9)] {
                let a = spiky(m, k);
                let b = spiky(k, n);
                let pa = PackedBfp::quantize_pack_lhs(&q, &a).unwrap();
                let pb = PackedBfp::quantize_pack_rhs(&q, &b).unwrap();
                let epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
                    for i in 0..ctx.imax {
                        let row = &mut tile[i * ctx.b..][..ctx.jmax];
                        for (j, v) in row.iter_mut().enumerate() {
                            *v += bias[ctx.c0 + j];
                        }
                    }
                };
                let composed = composed_epilogue(&pa, &pb, |v, _i, j| v + bias[j]);
                let want = PackedBfp::quantize_pack_lhs(&q, &composed).unwrap();
                let got = pa.matmul_epilogue_requant(&pb, &q, epi).unwrap();
                assert_eq!(got, want, "{round:?} {m}x{k}x{n}");
                // Parallel fused requant: same bits for any shard count.
                for threads in [2usize, 3, 8] {
                    let mut epis: Vec<_> = (0..threads).map(|_| epi).collect();
                    let gp = pa
                        .matmul_epilogue_requant_parallel(&pb, &q, threads, &mut epis)
                        .unwrap();
                    assert_eq!(gp, want, "{round:?} {m}x{k}x{n} {threads}t");
                }
            }
        }
    }

    #[test]
    fn fused_requant_handles_zero_tiles_and_extreme_scales() {
        let q = Quantizer::paper();
        // Near-overflow and subnormal-ish scales in the same operand, plus
        // an epilogue that zeroes a whole tile column band.
        let a = MatF32::from_fn(24, 16, |i, j| {
            let base = ((i * 7 + j * 3) % 11) as f32 - 5.0;
            if i < 8 {
                base * 3.0e35
            } else if i < 16 {
                base * 1.0e-38
            } else {
                base
            }
        });
        let b = MatF32::from_fn(16, 24, |i, j| ((i + 2 * j) % 7) as f32 - 3.0);
        let pa = PackedBfp::quantize_pack_lhs(&q, &a).unwrap();
        let pb = PackedBfp::quantize_pack_rhs(&q, &b).unwrap();
        let epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
            for i in 0..ctx.imax {
                let row = &mut tile[i * ctx.b..][..ctx.jmax];
                for (j, v) in row.iter_mut().enumerate() {
                    if ctx.c0 + j >= 8 && ctx.c0 + j < 16 {
                        *v = 0.0;
                    }
                }
            }
        };
        let composed = composed_epilogue(&pa, &pb, |v, _i, j| if (8..16).contains(&j) { 0.0 } else { v });
        let want = PackedBfp::quantize_pack_lhs(&q, &composed).unwrap();
        let got = pa.matmul_epilogue_requant(&pb, &q, epi).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn fused_requant_reports_identical_first_error() {
        let q = Quantizer::paper();
        let a = spiky(24, 16);
        let b = spiky(16, 24);
        let pa = PackedBfp::quantize_pack_lhs(&q, &a).unwrap();
        let pb = PackedBfp::quantize_pack_rhs(&q, &b).unwrap();
        // An epilogue that plants NaNs in two different tiles: the fused
        // path must report the same (first, row-major) position as the
        // composed scan of the materialised matrix.
        let poison = |tile: &mut [f32], ctx: &EpilogueCtx| {
            for i in 0..ctx.imax {
                let row = &mut tile[i * ctx.b..][..ctx.jmax];
                for (j, v) in row.iter_mut().enumerate() {
                    if (ctx.r0 + i, ctx.c0 + j) == (9, 13) || (ctx.r0 + i, ctx.c0 + j) == (2, 20) {
                        *v = f32::NAN;
                    }
                }
            }
        };
        let composed = composed_epilogue(&pa, &pb, |v, i, j| {
            if (i, j) == (9, 13) || (i, j) == (2, 20) {
                f32::NAN
            } else {
                v
            }
        });
        let want = format!("{:?}", PackedBfp::quantize_pack_lhs(&q, &composed).unwrap_err());
        let got = format!("{:?}", pa.matmul_epilogue_requant(&pb, &q, poison).unwrap_err());
        assert_eq!(got, want);
    }

    #[test]
    fn fused_requant_output_feeds_next_gemm_bit_identically() {
        // The fused kernel's whole point: its packed output, used as the
        // next GEMM's LHS, matches packing the composed f32 intermediate.
        let q = Quantizer::paper();
        let a = spiky(40, 24);
        let b = spiky(24, 32);
        let c = spiky(32, 16);
        let pa = PackedBfp::quantize_pack_lhs(&q, &a).unwrap();
        let pb = PackedBfp::quantize_pack_rhs(&q, &b).unwrap();
        let pc = PackedBfp::quantize_pack_rhs(&q, &c).unwrap();
        let epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
            for i in 0..ctx.imax {
                for v in &mut tile[i * ctx.b..][..ctx.jmax] {
                    *v = v.max(0.0); // relu-shaped, cheap stand-in
                }
            }
        };
        let mid_fused = pa.matmul_epilogue_requant(&pb, &q, epi).unwrap();
        let mid_f32 = composed_epilogue(&pa, &pb, |v, _, _| v.max(0.0));
        let mid_composed = PackedBfp::quantize_pack_lhs(&q, &mid_f32).unwrap();
        assert_eq!(mid_fused, mid_composed);
        assert_bits_eq(
            &mid_fused.matmul(&pc).unwrap(),
            &mid_composed.matmul(&pc).unwrap(),
        );
    }

    #[test]
    fn fused_generic_block_sizes_match_composed() {
        for blk in [4usize, 16] {
            let q = Quantizer::with_block(blk);
            let a = spiky(19, 21);
            let b = spiky(21, 10);
            let pa = PackedBfp::quantize_pack_lhs(&q, &a).unwrap();
            let pb = PackedBfp::quantize_pack_rhs(&q, &b).unwrap();
            let epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
                for i in 0..ctx.imax {
                    for v in &mut tile[i * ctx.b..][..ctx.jmax] {
                        *v *= 2.0;
                    }
                }
            };
            let composed = composed_epilogue(&pa, &pb, |v, _, _| v * 2.0);
            let got = pa.matmul_epilogue(&pb, epi).unwrap();
            assert_bits_eq(&got, &composed);
            let want_q = PackedBfp::quantize_pack_lhs(&q, &composed).unwrap();
            assert_eq!(pa.matmul_epilogue_requant(&pb, &q, epi).unwrap(), want_q);
        }
    }

    /// The b = 8 drain in `isa`, or the generic i64 drain for `None`.
    fn drain<S>(
        pa: &PackedBfp,
        pb: &PackedBfp,
        isa: Option<ChainIsa>,
        mut epi: impl FnMut(&mut [f32], &EpilogueCtx),
        sink: &mut S,
    ) -> Result<(), ArithError>
    where
        S: FnMut(&mut [f32], &EpilogueCtx) -> Result<(), ArithError>,
    {
        match isa {
            Some(isa) => pa.fused_rows_b8(isa, pb, 0, pa.block_rows, &mut epi, sink),
            None => pa.fused_rows_generic(pb, 0, pa.block_rows, &mut epi, sink),
        }
    }

    /// [`drain`] behind one epilogue into f32 rows and into a
    /// requantized packed LHS.
    fn drain_with(
        pa: &PackedBfp,
        pb: &PackedBfp,
        isa: Option<ChainIsa>,
        epi: impl Fn(&mut [f32], &EpilogueCtx) + Copy,
    ) -> (MatF32, Result<PackedBfp, ArithError>) {
        let q = Quantizer::paper();
        let (br, bc) = (pa.block_rows, pb.block_cols);
        let mut out = MatF32::zeros(pa.rows, pb.cols);
        drain(pa, pb, isa, epi, &mut store_rows(out.data_mut(), 0, pb.cols)).unwrap();
        let mut exps = vec![0i8; br * bc];
        let mut man = vec![0i8; br * bc * 64];
        let requant = drain(pa, pb, isa, epi, &mut |tile: &mut [f32], ctx: &EpilogueCtx| {
            let t = (ctx.r0 / 8) * bc + ctx.c0 / 8;
            requant_tile(&q, tile, ctx, q.max_mag() as i8, &mut exps[t], &mut man[t * 64..][..64])
        })
        .map(|()| PackedBfp {
            rows: pa.rows,
            cols: pb.cols,
            block: 8,
            block_rows: br,
            block_cols: bc,
            side: PackSide::Lhs,
            exps,
            man,
        });
        (out, requant)
    }

    #[test]
    fn b8_drain_every_variant_matches_the_generic_drain_and_reference() {
        let q = Quantizer::paper();
        let bias: Vec<f32> = (0..40).map(|j| (j as f32 * 0.3).sin()).collect();
        let gelu_ish = |tile: &mut [f32], ctx: &EpilogueCtx| {
            for i in 0..ctx.imax {
                for (j, v) in tile[i * ctx.b..][..ctx.jmax].iter_mut().enumerate() {
                    *v = (*v + bias[ctx.c0 + j]).tanh() * 3.0;
                }
            }
        };
        // Ragged m/n tails, K = 0, one block, and spiky exponents.
        let shapes = [(40, 24, 17), (11, 13, 7), (1, 9, 16), (8, 8, 8), (23, 64, 25), (9, 0, 10)];
        for (m, k, n) in shapes {
            let (a, b) = (spiky(m, k), spiky(k, n));
            let (qa, qb) = (q.quantize(&a).unwrap(), q.quantize(&b).unwrap());
            let (pa, pb) = (PackedBfp::pack_lhs(&qa), PackedBfp::pack_rhs(&qb));
            let reference = qa.try_matmul(&qb).unwrap();
            let (plain, _) = drain_with(&pa, &pb, None, no_epilogue);
            assert_bits_eq(&plain, &reference);
            let (fused, requant) = drain_with(&pa, &pb, None, gelu_ish);
            let requant = requant.unwrap();
            for isa in ChainIsa::supported() {
                let (got, _) = drain_with(&pa, &pb, Some(isa), no_epilogue);
                assert_bits_eq(&got, &reference);
                let (got, got_requant) = drain_with(&pa, &pb, Some(isa), gelu_ish);
                assert_bits_eq(&got, &fused);
                assert_eq!(got_requant.unwrap(), requant, "{isa:?} {m}x{k}x{n}");
            }
        }
    }

    /// A packed operand with every mantissa `man` and every exponent 0.
    fn uniform(rows: usize, cols: usize, side: PackSide, man: i8) -> PackedBfp {
        let (br, bc) = (rows.div_ceil(8), cols.div_ceil(8));
        PackedBfp {
            rows,
            cols,
            block: 8,
            block_rows: br,
            block_cols: bc,
            side,
            exps: vec![0; br * bc],
            man: vec![man; br * bc * 64],
        }
    }

    #[test]
    fn chains_too_long_for_i32_take_the_i64_drain() {
        // All -128 mantissas: each tile product element is +2^17, so the
        // sum reaches 2^31 at kb = 2^14 — one past i32. The shorter chain
        // stays on the i32 kernel and must still be exact.
        for kb in [CHAIN8_MAX_KB - 1, CHAIN8_MAX_KB] {
            let k = kb * 8;
            let pa = uniform(8, k, PackSide::Lhs, -128);
            let pb = uniform(k, 8, PackSide::Rhs, -128);
            let want = (kb as f64 * (1 << 17) as f64) as f32;
            let got = pa.matmul(&pb).unwrap();
            assert!(got.data().iter().all(|&v| v == want), "kb {kb}: {} vs {want}", got.get(0, 0));
        }
    }

    /// Serial ms per DeiT-S GEMM shape for every chain variant the host
    /// supports (median of 15 interleaved runs), plus the generic i64
    /// drain, for the kernel table in DESIGN.md:
    /// `cargo test --release -p bfp-arith chain_variant_timings -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing table; run by hand in release mode"]
    fn chain_variant_timings() {
        let q = Quantizer::paper();
        let isas = ChainIsa::supported();
        let names: Vec<&str> = isas.iter().map(|i| i.name()).collect();
        println!("{:20} {}  generic_i64", "shape", names.join("  "));
        for (name, m, k, n) in [
            ("qkv", 197, 384, 1152),
            ("wo", 197, 384, 384),
            ("fc1", 197, 384, 1536),
            ("fc2", 197, 1536, 384),
            ("scores", 197, 64, 197),
            ("ctx", 197, 197, 64),
        ] {
            let pa = PackedBfp::quantize_pack_lhs(&q, &wave(m, k, 1)).unwrap();
            let pb = PackedBfp::quantize_pack_rhs(&q, &wave(k, n, 2)).unwrap();
            let mut out = MatF32::zeros(m, n);
            let mut ms = vec![Vec::new(); isas.len() + 1];
            for _ in 0..15 {
                for (v, samples) in ms.iter_mut().enumerate() {
                    let sink = &mut store_rows(out.data_mut(), 0, n);
                    let t0 = std::time::Instant::now();
                    drain(&pa, &pb, isas.get(v).copied(), no_epilogue, sink).unwrap();
                    samples.push(t0.elapsed().as_secs_f64() * 1e3);
                }
            }
            let medians: Vec<String> = ms
                .iter_mut()
                .map(|v| {
                    v.sort_by(f64::total_cmp);
                    format!("{:.3}", v[v.len() / 2])
                })
                .collect();
            println!("{:20} {}", format!("{name} {m}x{k}x{n}"), medians.join("  "));
        }
    }

    #[test]
    fn accessors_report_layout() {
        let q = Quantizer::paper();
        let p = PackedBfp::quantize_rhs(&q, &wave(10, 20, 9)).unwrap();
        assert_eq!((p.rows(), p.cols()), (10, 20));
        assert_eq!(p.block(), 8);
        assert_eq!(p.grid(), (2, 3));
        assert_eq!(p.side(), PackSide::Rhs);
        assert_eq!(p.bytes(), 2 * 3 * 64 + 6);
    }
}

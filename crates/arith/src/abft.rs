//! Algorithm-based fault tolerance (ABFT) for the packed bfp8 fast path.
//!
//! The classic Huang–Abraham scheme augments a matmul `C = A·B` with a
//! checksum row/column: carry `eᵀA` and `B·e` (`e` the all-ones vector)
//! through the multiply and compare against the row/column sums of `C`
//! — O(n²) checking on an O(n³) kernel. The bfp8 datapath complicates
//! this in one way: the exponent-alignment chain **truncates** the wide
//! accumulator element-wise ([`shift_right_trunc`]), and truncation does
//! not commute with summation, so a checksum carried naively through the
//! chain drifts away from the data for perfectly healthy hardware.
//!
//! This module therefore keeps the invariant *exact* (no ULP tolerance
//! anywhere) by checking and resynchronising at every truncation event:
//!
//! * Pack time: each operand tile gets a `b`-entry checksum lane —
//!   column sums of an LHS tile, row sums of an RHS tile (`i16`; at
//!   `b ≤ 16` the sums cannot overflow). Because the lanes are computed
//!   at pack time, later corruption of the stored mantissa plane breaks
//!   the invariant and **is** detected.
//! * Per tile-product step, the checksum products
//!   `cp[j] = Σₖ xc[k]·y[k,j]` and `rp[i] = Σₖ x[i,k]·yc[k]` equal the
//!   column/row sums of the exact integer tile product, so while the
//!   chain stays at one exponent the running sums `chk`/`rchk` track the
//!   accumulator exactly.
//! * At a truncation event the accumulator (or the incoming product) is
//!   verified **before** the shift — full precision, before evidence is
//!   truncated away — then the sums are resynchronised from the
//!   truncated values, which is exact by construction.
//! * After the last step the committed accumulator is verified again, so
//!   drain-path upsets are caught too.
//!
//! On a mismatch, the row×column intersection localizes the fault: one
//! bad row sum `i*` and one bad column sum `j*` with equal deltas is a
//! single corrupted element, repaired algebraically in place
//! (`acc[i*,j*] -= Δ`). Consistent rows with inconsistent columns (or
//! vice versa) means the checksum words themselves took the hit — the
//! data is clean and the sums are resynchronised. Anything else is
//! uncorrectable under the single-fault model and the chain is reported
//! so the caller can retry / fall back (`bfp_core::resilient`).
//!
//! ## Coverage
//!
//! The checksums cover the integer datapath: stored mantissas, tile
//! products, accumulators, the drain path. They are **blind to shared-
//! exponent faults** — a corrupted exponent is used consistently by both
//! the data and the checksum path, so both move together. Exponent
//! storage and alignment are covered by the SECDED/TMR models one rung
//! down the detection ladder (see DESIGN.md "Detection ladder").
//!
//! With the `faults` feature the kernel routes operand/exponent/product/
//! accumulator accesses through the `bfp-faults` hooks whenever a
//! session is installed (one relaxed atomic load per GEMM otherwise), so
//! the same deterministic `FaultPlan`s that drive the cycle simulator
//! drive this kernel. The serving runtime instead scripts *per-array*
//! faults through [`AbftOptions::tamper`], a seam invoked once per
//! output chain between accumulation and the final verify.

use crate::bfp::shift_right_trunc;
use crate::error::ArithError;
use crate::kernel8::select_tile8;
use crate::matrix::MatF32;
use crate::packed::{dot_i8, EpilogueCtx, PackedBfp};
use crate::quant::{BfpMatrix, Quantizer};

/// Fused per-tile epilogue for the checked kernel: applied to an output
/// tile at drain time, after the chain's final verify, and **only** when
/// the chain is clean or repaired — an uncorrected chain's bits are
/// suspect and stay raw (the caller discards/retries them anyway).
pub type AbftEpilogue<'a> = &'a mut dyn FnMut(&mut [f32], &EpilogueCtx);

/// Map a packed-plane element to its modelled BRAM site, so fault
/// campaigns can aim at real storage positions: tiles stripe across the
/// 16 mantissa BRAMs, consecutive tiles on one BRAM occupy consecutive
/// `bb`-byte lines. Both operand planes read through the same modelled
/// pool (as on the device, where X and Y buffers share the BRAM stacks).
pub fn plane_site(tile: usize, elem: usize, bb: usize) -> (usize, usize) {
    (tile % 16, (tile / 16) * bb + elem)
}

/// What one checked GEMM (or block-row shard) observed and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbftReport {
    /// Output chains (bi, bj) that ran to completion.
    pub chains: u64,
    /// Checksum-invariant verifications performed (checkpoints at
    /// truncation events plus the final per-chain check).
    pub checks: u64,
    /// Invariant mismatches observed (corrected or not).
    pub detections: u64,
    /// Single-element faults repaired algebraically in place.
    pub corrected_elements: u64,
    /// Checksum words resynchronised because the data proved clean.
    pub corrected_checksums: u64,
    /// Elements perturbed through [`AbftOptions::tamper`].
    pub tampered: u64,
    /// Chains whose mismatch could not be localized/corrected; their
    /// output is suspect and the caller must retry or fall back.
    pub uncorrected: Vec<(usize, usize)>,
}

impl AbftReport {
    /// No mismatch anywhere: output provably satisfies the invariant.
    pub fn clean(&self) -> bool {
        self.detections == 0 && self.uncorrected.is_empty()
    }

    /// Mismatches repaired in place (elements + checksum resyncs).
    pub fn corrections(&self) -> u64 {
        self.corrected_elements + self.corrected_checksums
    }

    /// Accumulate a shard's report into a whole-GEMM report.
    pub fn merge(&mut self, other: &AbftReport) {
        self.chains += other.chains;
        self.checks += other.checks;
        self.detections += other.detections;
        self.corrected_elements += other.corrected_elements;
        self.corrected_checksums += other.corrected_checksums;
        self.tampered += other.tampered;
        self.uncorrected.extend_from_slice(&other.uncorrected);
    }
}

/// Scripted corruption callback: receives `(bi, bj, acc_tile)` and
/// returns how many elements it perturbed.
pub type TamperFn<'a> = &'a mut dyn FnMut(usize, usize, &mut [i64]) -> u64;

/// Per-call knobs for the checked kernel.
#[derive(Default)]
pub struct AbftOptions<'a> {
    /// `false` skips all checksum maintenance — the unprotected
    /// baseline a chaos campaign measures silent corruption against.
    /// Inverted default via [`AbftOptions::default`]: verification on.
    pub no_verify: bool,
    /// Scripted corruption seam: called once per (bi, bj) chain after
    /// accumulation and before the committed-value verify, receiving the
    /// wide accumulator tile; returns how many elements it perturbed.
    /// This is how the serving runtime models *per-array* faults, which
    /// the process-global hook session cannot express.
    pub tamper: Option<TamperFn<'a>>,
}

impl AbftOptions<'_> {
    /// Verification disabled (baseline / unprotected runs).
    pub fn unverified() -> Self {
        AbftOptions {
            no_verify: true,
            tamper: None,
        }
    }
}

/// A packed operand carrying per-tile checksum lanes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbftPacked {
    packed: PackedBfp,
    /// `csum[tile·b + k] = Σ_idx man[tile·b² + idx·b + k]` — column sums
    /// of an LHS tile, row sums of a (block-transposed) RHS tile. `i16`
    /// cannot overflow for `b ≤ 256`.
    csum: Vec<i16>,
}

impl AbftPacked {
    /// Wrap an already-packed operand, computing its checksum lanes.
    pub fn from_packed(packed: PackedBfp) -> AbftPacked {
        let b = packed.block();
        let bb = b * b;
        let man = packed.man_plane();
        let tiles = man.len() / bb;
        let mut csum = vec![0i16; tiles * b];
        for t in 0..tiles {
            let tile = &man[t * bb..][..bb];
            let lane = &mut csum[t * b..][..b];
            for idx in 0..b {
                for k in 0..b {
                    lane[k] += tile[idx * b + k] as i16;
                }
            }
        }
        AbftPacked { packed, csum }
    }

    /// Pack a quantized matrix as a checksummed left operand.
    pub fn pack_lhs(m: &BfpMatrix) -> AbftPacked {
        Self::from_packed(PackedBfp::pack_lhs(m))
    }

    /// Pack a quantized matrix as a checksummed right operand.
    pub fn pack_rhs(m: &BfpMatrix) -> AbftPacked {
        Self::from_packed(PackedBfp::pack_rhs(m))
    }

    /// Fused quantize-pack-checksum for the left operand.
    pub fn quantize_pack_lhs(q: &Quantizer, m: &MatF32) -> Result<AbftPacked, ArithError> {
        Ok(Self::from_packed(PackedBfp::quantize_pack_lhs(q, m)?))
    }

    /// Fused quantize-pack-checksum for the right operand.
    pub fn quantize_pack_rhs(q: &Quantizer, m: &MatF32) -> Result<AbftPacked, ArithError> {
        Ok(Self::from_packed(PackedBfp::quantize_pack_rhs(q, m)?))
    }

    /// The underlying packed operand.
    pub fn packed(&self) -> &PackedBfp {
        &self.packed
    }

    /// Extra storage the checksum lanes cost, in bytes (2/b of the
    /// mantissa plane).
    pub fn checksum_bytes(&self) -> usize {
        self.csum.len() * 2
    }

    /// Checked GEMM with default options (verification on, no tamper).
    pub fn matmul(&self, rhs: &AbftPacked) -> Result<(MatF32, AbftReport), ArithError> {
        self.matmul_with(rhs, &mut AbftOptions::default())
    }

    /// Checked GEMM: bit-identical to [`PackedBfp::matmul`] on healthy
    /// hardware, with the checksum invariant enforced per output chain.
    pub fn matmul_with(
        &self,
        rhs: &AbftPacked,
        opts: &mut AbftOptions,
    ) -> Result<(MatF32, AbftReport), ArithError> {
        self.packed.check_compatible(&rhs.packed)?;
        let mut out = MatF32::zeros(self.packed.rows(), rhs.packed.cols());
        let (mb, _) = self.packed.grid();
        let report = self.matmul_rows_into(rhs, 0, mb, out.data_mut(), opts);
        Ok((out, report))
    }

    /// Checked GEMM with a fused per-tile epilogue applied while the
    /// drained tile is hot (see [`AbftEpilogue`]). For verified-clean
    /// chains the epilogue sees exactly the bits [`AbftPacked::matmul_with`]
    /// would have written, so an element-wise epilogue (bias, GELU) is
    /// bit-identical to running the same pass over the materialised
    /// output; uncorrected chains bypass it and keep their raw bits.
    /// `K = 0` chains run the epilogue over their zero tile, matching the
    /// composed path's pass over the zero region.
    pub fn matmul_with_epilogue(
        &self,
        rhs: &AbftPacked,
        opts: &mut AbftOptions,
        epi: AbftEpilogue,
    ) -> Result<(MatF32, AbftReport), ArithError> {
        self.packed.check_compatible(&rhs.packed)?;
        let b = self.packed.block();
        let mut out = MatF32::zeros(self.packed.rows(), rhs.packed.cols());
        let (mb, _) = self.packed.grid();
        let mut report = AbftReport::default();
        let mut epi = Some(epi);
        if b == 8 {
            self.rows_checked_b8(rhs, 0, mb, out.data_mut(), opts, &mut report, &mut epi);
        } else {
            self.rows_checked_generic(rhs, 0, mb, out.data_mut(), opts, &mut report, &mut epi);
        }
        Ok((out, report))
    }

    /// Compute output block-rows `bi_lo..bi_hi` into `out_rows` (same
    /// contract as [`PackedBfp::matmul_rows_into`]) under the checksum
    /// invariant. Callers shard retries at this granularity.
    ///
    /// # Panics
    /// Panics on inconsistent range/buffer; validate operands first with
    /// [`PackedBfp::check_compatible`].
    pub fn matmul_rows_into(
        &self,
        rhs: &AbftPacked,
        bi_lo: usize,
        bi_hi: usize,
        out_rows: &mut [f32],
        opts: &mut AbftOptions,
    ) -> AbftReport {
        let b = self.packed.block();
        debug_assert!(self.packed.check_compatible(&rhs.packed).is_ok());
        let (mb, _) = self.packed.grid();
        assert!(bi_lo <= bi_hi && bi_hi <= mb, "block-row range");
        let r0 = bi_lo * b;
        let rows_here = (bi_hi * b).min(self.packed.rows()).saturating_sub(r0);
        assert_eq!(
            out_rows.len(),
            rows_here * rhs.packed.cols(),
            "output shard must cover its block rows exactly"
        );
        let mut report = AbftReport::default();
        if b == 8 {
            self.rows_checked_b8(rhs, bi_lo, bi_hi, out_rows, opts, &mut report, &mut None);
        } else {
            self.rows_checked_generic(rhs, bi_lo, bi_hi, out_rows, opts, &mut report, &mut None);
        }
        report
    }

    /// The paper-shaped `b == 8` checked kernel: fixed-size tiles, the
    /// runtime-dispatched 8×8 product micro-kernel, checksum maintenance
    /// as documented at module level.
    #[allow(clippy::too_many_arguments)]
    fn rows_checked_b8(
        &self,
        rhs: &AbftPacked,
        bi_lo: usize,
        bi_hi: usize,
        out_rows: &mut [f32],
        opts: &mut AbftOptions,
        report: &mut AbftReport,
        epi: &mut Option<AbftEpilogue>,
    ) {
        const B: usize = 8;
        const BB: usize = 64;
        let mut etile = [0f32; BB];
        let tile8 = select_tile8();
        let verify = !opts.no_verify;
        let inject = injecting();
        let r0 = bi_lo * B;
        let out_cols = rhs.packed.cols();
        let (_, kb) = self.packed.grid();
        let (_, nb) = rhs.packed.grid();
        let (xman, xexp) = (self.packed.man_plane(), self.packed.exp_plane());
        let (yman, yexp) = (rhs.packed.man_plane(), rhs.packed.exp_plane());
        let mut prod = [0i32; BB];
        let mut prod64 = [0i64; BB];
        let mut acc = [0i64; BB];
        let mut chk = [0i64; B];
        let mut rchk = [0i64; B];
        let mut cp = [0i64; B];
        let mut rp = [0i64; B];
        let mut xbuf = [0i8; BB];
        let mut ybuf = [0i8; BB];
        for bi in bi_lo..bi_hi {
            let imax = B.min(self.packed.rows() - bi * B);
            for bj in 0..nb {
                let jmax = B.min(rhs.packed.cols() - bj * B);
                let mut acc_exp = 0i32;
                let mut first = true;
                // Set once a mismatch defeats localization; checksum
                // maintenance stops (the chain is already condemned).
                let mut dirty = false;
                for bk in 0..kb {
                    let xt = bi * kb + bk;
                    let yt = bk * nb + bj;
                    let x: &[i8; BB] = tile_src(xman, xt, BB, inject, &mut xbuf)
                        .try_into()
                        .unwrap();
                    let y: &[i8; BB] = tile_src(yman, yt, BB, inject, &mut ybuf)
                        .try_into()
                        .unwrap();
                    let pexp = exp_src(xexp, xt, inject) as i32 + exp_src(yexp, yt, inject) as i32;
                    tile8(x, y, &mut prod);
                    if inject {
                        for t in 0..BB {
                            prod64[t] = commit_prod(prod[t] as i64);
                        }
                    } else {
                        for t in 0..BB {
                            prod64[t] = prod[t] as i64;
                        }
                    }
                    if verify && !dirty {
                        // Checksum products of the exact integer tile
                        // product, from the pack-time lanes. i32 is
                        // ample: |cp| ≤ 8·(8·127)·127 < 2^21.
                        let xc = &self.csum[xt * B..][..B];
                        let yc = &rhs.csum[yt * B..][..B];
                        for j in 0..B {
                            let yr = &y[j * B..][..B];
                            let mut s = 0i32;
                            for k in 0..B {
                                s += xc[k] as i32 * yr[k] as i32;
                            }
                            cp[j] = s as i64;
                        }
                        for i in 0..B {
                            let xr = &x[i * B..][..B];
                            let mut s = 0i32;
                            for k in 0..B {
                                s += xr[k] as i32 * yc[k] as i32;
                            }
                            rp[i] = s as i64;
                        }
                    }
                    if first {
                        first = false;
                        acc_exp = pexp;
                        acc = prod64;
                        if verify {
                            chk = cp;
                            rchk = rp;
                        }
                    } else if pexp >= acc_exp {
                        let sh = (pexp - acc_exp) as u32;
                        acc_exp = pexp;
                        if sh == 0 {
                            for t in 0..BB {
                                acc[t] += prod64[t];
                            }
                            if verify && !dirty {
                                for j in 0..B {
                                    chk[j] += cp[j];
                                    rchk[j] += rp[j];
                                }
                            }
                        } else if verify && !dirty {
                            // Truncation event: checkpoint-verify the
                            // accumulator at full precision, truncate,
                            // resync the sums exactly, then fold in the
                            // new product.
                            if !verify_correct(&mut acc, B, &mut chk, &mut rchk, report) {
                                dirty = true;
                            }
                            for t in 0..BB {
                                acc[t] = shift_right_trunc(acc[t], sh);
                            }
                            if !dirty {
                                sums_of(&acc, B, &mut rchk, &mut chk);
                            }
                            for t in 0..BB {
                                acc[t] += prod64[t];
                            }
                            if !dirty {
                                for j in 0..B {
                                    chk[j] += cp[j];
                                    rchk[j] += rp[j];
                                }
                            }
                        } else {
                            for t in 0..BB {
                                acc[t] = shift_right_trunc(acc[t], sh) + prod64[t];
                            }
                        }
                    } else {
                        let sh = (acc_exp - pexp) as u32;
                        if verify && !dirty {
                            // The incoming product is about to lose
                            // bits: verify it first (its sums are cp/rp
                            // exactly), then accumulate the truncated
                            // values and their exact sums.
                            if !verify_correct(&mut prod64, B, &mut cp, &mut rp, report) {
                                dirty = true;
                                for t in 0..BB {
                                    acc[t] += shift_right_trunc(prod64[t], sh);
                                }
                            } else {
                                for i in 0..B {
                                    for j in 0..B {
                                        let tp = shift_right_trunc(prod64[i * B + j], sh);
                                        acc[i * B + j] += tp;
                                        chk[j] += tp;
                                        rchk[i] += tp;
                                    }
                                }
                            }
                        } else {
                            for t in 0..BB {
                                acc[t] += shift_right_trunc(prod64[t], sh);
                            }
                        }
                    }
                }
                let ctx = EpilogueCtx {
                    r0: bi * B,
                    c0: bj * B,
                    imax,
                    jmax,
                    b: B,
                };
                if first {
                    // K = 0: the reference kernel leaves zeros; a fused
                    // epilogue still runs over the zero tile, as the
                    // composed path's element pass covers the zero region.
                    if let Some(e) = epi.as_mut() {
                        for i in 0..imax {
                            etile[i * B..][..jmax].fill(0.0);
                        }
                        e(&mut etile, &ctx);
                        for i in 0..imax {
                            out_rows[(bi * B + i - r0) * out_cols + bj * B..][..jmax]
                                .copy_from_slice(&etile[i * B..][..jmax]);
                        }
                    } else {
                        for i in 0..imax {
                            out_rows[(bi * B + i - r0) * out_cols + bj * B..][..jmax].fill(0.0);
                        }
                    }
                    continue;
                }
                report.chains += 1;
                if let Some(t) = opts.tamper.as_mut() {
                    report.tampered += t(bi, bj, &mut acc);
                }
                if inject {
                    for i in 0..B {
                        for j in 0..B {
                            acc[i * B + j] = commit_acc(i, j, acc[i * B + j]);
                        }
                    }
                }
                let mut chain_ok = true;
                if verify {
                    chain_ok = !dirty && verify_correct(&mut acc, B, &mut chk, &mut rchk, report);
                    if !chain_ok {
                        report.uncorrected.push((bi, bj));
                    }
                }
                let scale = (acc_exp as f64).exp2();
                match epi.as_mut() {
                    Some(e) if chain_ok => {
                        for i in 0..imax {
                            let ar = &acc[i * B..][..B];
                            let tr = &mut etile[i * B..][..jmax];
                            for (o, &a) in tr.iter_mut().zip(ar.iter()) {
                                *o = (a as f64 * scale) as f32;
                            }
                        }
                        e(&mut etile, &ctx);
                        for i in 0..imax {
                            out_rows[(bi * B + i - r0) * out_cols + bj * B..][..jmax]
                                .copy_from_slice(&etile[i * B..][..jmax]);
                        }
                    }
                    _ => {
                        for i in 0..imax {
                            let ar = &acc[i * B..][..B];
                            let dst =
                                &mut out_rows[(bi * B + i - r0) * out_cols + bj * B..][..jmax];
                            for (o, &a) in dst.iter_mut().zip(ar.iter()) {
                                *o = (a as f64 * scale) as f32;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Generic-block checked kernel (slices and heap scratch); same
    /// invariant, used for `b != 8`.
    #[allow(clippy::too_many_arguments)]
    fn rows_checked_generic(
        &self,
        rhs: &AbftPacked,
        bi_lo: usize,
        bi_hi: usize,
        out_rows: &mut [f32],
        opts: &mut AbftOptions,
        report: &mut AbftReport,
        epi: &mut Option<AbftEpilogue>,
    ) {
        let b = self.packed.block();
        let bb = b * b;
        let mut etile = vec![0f32; bb];
        let verify = !opts.no_verify;
        let inject = injecting();
        let r0 = bi_lo * b;
        let out_cols = rhs.packed.cols();
        let (_, kb) = self.packed.grid();
        let (_, nb) = rhs.packed.grid();
        let (xman, xexp) = (self.packed.man_plane(), self.packed.exp_plane());
        let (yman, yexp) = (rhs.packed.man_plane(), rhs.packed.exp_plane());
        let mut prod64 = vec![0i64; bb];
        let mut acc = vec![0i64; bb];
        let mut chk = vec![0i64; b];
        let mut rchk = vec![0i64; b];
        let mut cp = vec![0i64; b];
        let mut rp = vec![0i64; b];
        let mut xbuf = vec![0i8; bb];
        let mut ybuf = vec![0i8; bb];
        for bi in bi_lo..bi_hi {
            let imax = b.min(self.packed.rows() - bi * b);
            for bj in 0..nb {
                let jmax = b.min(rhs.packed.cols() - bj * b);
                let mut acc_exp = 0i32;
                let mut first = true;
                let mut dirty = false;
                for bk in 0..kb {
                    let xt = bi * kb + bk;
                    let yt = bk * nb + bj;
                    let x = tile_src(xman, xt, bb, inject, &mut xbuf);
                    let y = tile_src(yman, yt, bb, inject, &mut ybuf);
                    let pexp = exp_src(xexp, xt, inject) as i32 + exp_src(yexp, yt, inject) as i32;
                    for i in 0..b {
                        let xr = &x[i * b..][..b];
                        for j in 0..b {
                            let p = dot_i8(xr, &y[j * b..][..b]) as i64;
                            prod64[i * b + j] = if inject { commit_prod(p) } else { p };
                        }
                    }
                    if verify && !dirty {
                        let xc = &self.csum[xt * b..][..b];
                        let yc = &rhs.csum[yt * b..][..b];
                        for j in 0..b {
                            let yr = &y[j * b..][..b];
                            let mut s = 0i64;
                            for k in 0..b {
                                s += xc[k] as i64 * yr[k] as i64;
                            }
                            cp[j] = s;
                        }
                        for i in 0..b {
                            let xr = &x[i * b..][..b];
                            let mut s = 0i64;
                            for k in 0..b {
                                s += xr[k] as i64 * yc[k] as i64;
                            }
                            rp[i] = s;
                        }
                    }
                    if first {
                        first = false;
                        acc_exp = pexp;
                        acc.copy_from_slice(&prod64);
                        if verify {
                            chk.copy_from_slice(&cp);
                            rchk.copy_from_slice(&rp);
                        }
                    } else if pexp >= acc_exp {
                        let sh = (pexp - acc_exp) as u32;
                        acc_exp = pexp;
                        if sh == 0 {
                            for t in 0..bb {
                                acc[t] += prod64[t];
                            }
                            if verify && !dirty {
                                for j in 0..b {
                                    chk[j] += cp[j];
                                    rchk[j] += rp[j];
                                }
                            }
                        } else if verify && !dirty {
                            if !verify_correct(&mut acc, b, &mut chk, &mut rchk, report) {
                                dirty = true;
                            }
                            for t in 0..bb {
                                acc[t] = shift_right_trunc(acc[t], sh);
                            }
                            if !dirty {
                                sums_of(&acc, b, &mut rchk, &mut chk);
                            }
                            for t in 0..bb {
                                acc[t] += prod64[t];
                            }
                            if !dirty {
                                for j in 0..b {
                                    chk[j] += cp[j];
                                    rchk[j] += rp[j];
                                }
                            }
                        } else {
                            for t in 0..bb {
                                acc[t] = shift_right_trunc(acc[t], sh) + prod64[t];
                            }
                        }
                    } else {
                        let sh = (acc_exp - pexp) as u32;
                        if verify && !dirty {
                            if !verify_correct(&mut prod64, b, &mut cp, &mut rp, report) {
                                dirty = true;
                                for t in 0..bb {
                                    acc[t] += shift_right_trunc(prod64[t], sh);
                                }
                            } else {
                                for i in 0..b {
                                    for j in 0..b {
                                        let tp = shift_right_trunc(prod64[i * b + j], sh);
                                        acc[i * b + j] += tp;
                                        chk[j] += tp;
                                        rchk[i] += tp;
                                    }
                                }
                            }
                        } else {
                            for t in 0..bb {
                                acc[t] += shift_right_trunc(prod64[t], sh);
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
                    if let Some(e) = epi.as_mut() {
                        for i in 0..imax {
                            etile[i * b..][..jmax].fill(0.0);
                        }
                        e(&mut etile, &ctx);
                        for i in 0..imax {
                            out_rows[(bi * b + i - r0) * out_cols + bj * b..][..jmax]
                                .copy_from_slice(&etile[i * b..][..jmax]);
                        }
                    } else {
                        for i in 0..imax {
                            out_rows[(bi * b + i - r0) * out_cols + bj * b..][..jmax].fill(0.0);
                        }
                    }
                    continue;
                }
                report.chains += 1;
                if let Some(t) = opts.tamper.as_mut() {
                    report.tampered += t(bi, bj, &mut acc);
                }
                if inject {
                    for i in 0..b {
                        for j in 0..b {
                            acc[i * b + j] = commit_acc(i, j, acc[i * b + j]);
                        }
                    }
                }
                let mut chain_ok = true;
                if verify {
                    chain_ok = !dirty && verify_correct(&mut acc, b, &mut chk, &mut rchk, report);
                    if !chain_ok {
                        report.uncorrected.push((bi, bj));
                    }
                }
                let scale = (acc_exp as f64).exp2();
                match epi.as_mut() {
                    Some(e) if chain_ok => {
                        for i in 0..imax {
                            let ar = &acc[i * b..][..b];
                            let tr = &mut etile[i * b..][..jmax];
                            for (o, &a) in tr.iter_mut().zip(ar.iter()) {
                                *o = (a as f64 * scale) as f32;
                            }
                        }
                        e(&mut etile, &ctx);
                        for i in 0..imax {
                            out_rows[(bi * b + i - r0) * out_cols + bj * b..][..jmax]
                                .copy_from_slice(&etile[i * b..][..jmax]);
                        }
                    }
                    _ => {
                        for i in 0..imax {
                            let ar = &acc[i * b..][..b];
                            let dst =
                                &mut out_rows[(bi * b + i - r0) * out_cols + bj * b..][..jmax];
                            for (o, &a) in dst.iter_mut().zip(ar.iter()) {
                                *o = (a as f64 * scale) as f32;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Recompute `rows[i] = Σⱼ data[i,j]`, `cols[j] = Σᵢ data[i,j]`.
fn sums_of(data: &[i64], b: usize, rows: &mut [i64], cols: &mut [i64]) {
    rows[..b].fill(0);
    cols[..b].fill(0);
    for i in 0..b {
        let dr = &data[i * b..][..b];
        for (j, &v) in dr.iter().enumerate() {
            rows[i] += v;
            cols[j] += v;
        }
    }
}

/// Verify `chk`/`rchk` against the actual column/row sums of `data`;
/// on mismatch, localize via the row×column intersection and repair.
/// Returns `true` when the invariant holds on exit (possibly after an
/// in-place correction), `false` when the mismatch is uncorrectable
/// under the single-fault model.
fn verify_correct(
    data: &mut [i64],
    b: usize,
    chk: &mut [i64],
    rchk: &mut [i64],
    report: &mut AbftReport,
) -> bool {
    report.checks += 1;
    let mut rows = [0i64; 16];
    let mut cols = [0i64; 16];
    let mut rows_v;
    let mut cols_v;
    let (rows, cols): (&mut [i64], &mut [i64]) = if b <= 16 {
        (&mut rows[..b], &mut cols[..b])
    } else {
        rows_v = vec![0i64; b];
        cols_v = vec![0i64; b];
        (&mut rows_v, &mut cols_v)
    };
    for i in 0..b {
        let dr = &data[i * b..][..b];
        for (j, &v) in dr.iter().enumerate() {
            rows[i] += v;
            cols[j] += v;
        }
    }
    let mut bad_i = None;
    let mut ni = 0usize;
    let mut bad_j = None;
    let mut nj = 0usize;
    for i in 0..b {
        if rows[i] != rchk[i] {
            ni += 1;
            bad_i = Some(i);
        }
        if cols[i] != chk[i] {
            nj += 1;
            bad_j = Some(i);
        }
    }
    if ni == 0 && nj == 0 {
        return true;
    }
    report.detections += 1;
    match (bad_i, bad_j) {
        // One bad row crossing one bad column with equal deltas: a
        // single corrupted element; subtract the delta to repair it.
        (Some(i), Some(j)) if ni == 1 && nj == 1 && rows[i] - rchk[i] == cols[j] - chk[j] => {
            data[i * b + j] -= rows[i] - rchk[i];
            report.corrected_elements += 1;
            true
        }
        // Rows all consistent but columns not (or vice versa): data is
        // vouched for by the clean dimension, so the checksum words
        // themselves took the hit — resynchronise them.
        (None, Some(_)) => {
            chk[..b].copy_from_slice(&cols[..b]);
            report.corrected_checksums += 1;
            true
        }
        (Some(_), None) => {
            rchk[..b].copy_from_slice(&rows[..b]);
            report.corrected_checksums += 1;
            true
        }
        // Multiple intersections or inconsistent deltas: more than one
        // fault landed; not correctable here.
        _ => false,
    }
}

/// Whether a fault-injection session is live (one relaxed load). The
/// per-access hooks below are only consulted when it is.
#[inline(always)]
fn injecting() -> bool {
    #[cfg(feature = "faults")]
    {
        bfp_faults::active()
    }
    #[cfg(not(feature = "faults"))]
    {
        false
    }
}

/// Read a tile out of a mantissa plane, through the modelled operand
/// BRAMs when injecting.
#[inline(always)]
fn tile_src<'a>(
    man: &'a [i8],
    tile: usize,
    bb: usize,
    inject: bool,
    buf: &'a mut [i8],
) -> &'a [i8] {
    #[cfg(feature = "faults")]
    if inject {
        let src = &man[tile * bb..][..bb];
        for (e, (d, &s)) in buf.iter_mut().zip(src).enumerate() {
            let (bram, addr) = plane_site(tile, e, bb);
            *d = bfp_faults::hook::bram_read(bram, addr, s as u8) as i8;
        }
        return &buf[..bb];
    }
    let _ = (inject, buf);
    &man[tile * bb..][..bb]
}

/// Read a tile's shared exponent, through the modelled exponent BRAM
/// when injecting.
#[inline(always)]
fn exp_src(exps: &[i8], tile: usize, inject: bool) -> i8 {
    #[cfg(feature = "faults")]
    if inject {
        return bfp_faults::hook::exp_read(tile, exps[tile] as u8) as i8;
    }
    let _ = inject;
    exps[tile]
}

/// One tile-product element through the DSP48 P-register commit hook.
#[inline(always)]
fn commit_prod(p: i64) -> i64 {
    #[cfg(feature = "faults")]
    {
        bfp_faults::hook::dsp_p_commit(p)
    }
    #[cfg(not(feature = "faults"))]
    {
        p
    }
}

/// One accumulator element through the PSU read hook at drain time.
#[inline(always)]
fn commit_acc(row: usize, col: usize, v: i64) -> i64 {
    #[cfg(feature = "faults")]
    {
        bfp_faults::hook::psu_read(row, col, v)
    }
    #[cfg(not(feature = "faults"))]
    {
        let _ = (row, col);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn checked_kernel_is_bit_identical_and_clean_when_healthy() {
        let q = Quantizer::paper();
        for (m, k, n) in [(16, 16, 16), (24, 40, 8), (11, 13, 7), (40, 24, 17)] {
            let a = spiky(m, k);
            let b = spiky(k, n);
            let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
            let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
            let want = pa.packed().matmul(pb.packed()).unwrap();
            let (got, report) = pa.matmul(&pb).unwrap();
            assert_bits_eq(&got, &want);
            assert!(report.clean(), "{report:?}");
            assert!(report.checks >= report.chains);
        }
    }

    #[test]
    fn generic_block_sizes_hold_the_invariant() {
        for blk in [4usize, 16] {
            let q = Quantizer::with_block(blk);
            let a = spiky(19, 21);
            let b = spiky(21, 10);
            let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
            let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
            let want = pa.packed().matmul(pb.packed()).unwrap();
            let (got, report) = pa.matmul(&pb).unwrap();
            assert_bits_eq(&got, &want);
            assert!(report.clean(), "b={blk}: {report:?}");
        }
    }

    #[test]
    fn unverified_mode_matches_packed_kernel_and_skips_checks() {
        let q = Quantizer::paper();
        let a = spiky(24, 32);
        let b = spiky(32, 16);
        let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
        let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
        let want = pa.packed().matmul(pb.packed()).unwrap();
        let (got, report) = pa
            .matmul_with(&pb, &mut AbftOptions::unverified())
            .unwrap();
        assert_bits_eq(&got, &want);
        assert_eq!(report.checks, 0);
        assert!(report.clean());
    }

    #[test]
    fn tamper_single_element_is_detected_and_corrected_in_place() {
        let q = Quantizer::paper();
        let a = spiky(16, 32);
        let b = spiky(32, 16);
        let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
        let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
        let want = pa.packed().matmul(pb.packed()).unwrap();
        let mut fired = false;
        let mut tamper = |bi: usize, bj: usize, acc: &mut [i64]| -> u64 {
            if bi == 0 && bj == 1 && !fired {
                fired = true;
                acc[27] ^= 1 << 17;
                1
            } else {
                0
            }
        };
        let mut opts = AbftOptions {
            no_verify: false,
            tamper: Some(&mut tamper),
        };
        let (got, report) = pa.matmul_with(&pb, &mut opts).unwrap();
        assert_bits_eq(&got, &want);
        assert_eq!(report.tampered, 1);
        assert_eq!(report.detections, 1);
        assert_eq!(report.corrected_elements, 1);
        assert!(report.uncorrected.is_empty());
    }

    #[test]
    fn tamper_multi_element_is_detected_but_uncorrectable() {
        let q = Quantizer::paper();
        let a = spiky(16, 16);
        let b = spiky(16, 16);
        let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
        let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
        let mut tamper = |bi: usize, bj: usize, acc: &mut [i64]| -> u64 {
            if bi == 0 && bj == 0 {
                // Three elements across distinct rows and columns:
                // defeats single-element localization.
                acc[0] += 1 << 12;
                acc[9] += 1 << 13;
                acc[18] += 1 << 14;
                3
            } else {
                0
            }
        };
        let mut opts = AbftOptions {
            no_verify: false,
            tamper: Some(&mut tamper),
        };
        let (_, report) = pa.matmul_with(&pb, &mut opts).unwrap();
        assert_eq!(report.tampered, 3);
        assert!(report.detections > 0);
        assert_eq!(report.corrected_elements, 0);
        assert_eq!(report.uncorrected, vec![(0, 0)]);
    }

    #[test]
    fn corrupted_checksum_words_resync_without_touching_data() {
        let mut report = AbftReport::default();
        let b = 4usize;
        let mut data = vec![3i64; b * b];
        let mut chk = vec![12i64; b];
        let mut rchk = vec![12i64; b];
        // Corrupt two column-checksum words; rows stay consistent.
        chk[1] += 7;
        chk[3] -= 2;
        assert!(verify_correct(&mut data, b, &mut chk, &mut rchk, &mut report));
        assert_eq!(report.corrected_checksums, 1);
        assert_eq!(chk, vec![12i64; b]);
        assert!(data.iter().all(|&v| v == 3));
        // And the symmetric case for the row lane.
        rchk[0] += 1;
        assert!(verify_correct(&mut data, b, &mut chk, &mut rchk, &mut report));
        assert_eq!(report.corrected_checksums, 2);
    }

    #[test]
    fn inconsistent_intersection_is_uncorrectable() {
        let mut report = AbftReport::default();
        let b = 4usize;
        let mut data = vec![1i64; b * b];
        let mut chk = vec![4i64; b];
        let mut rchk = vec![4i64; b];
        // Two corrupted elements in the same row, different columns:
        // one bad row, two bad columns.
        data[1] += 5;
        data[2] += 9;
        assert!(!verify_correct(&mut data, b, &mut chk, &mut rchk, &mut report));
        assert_eq!(report.detections, 1);
        assert_eq!(report.corrections(), 0);
    }

    #[test]
    fn epilogue_on_clean_chains_matches_composed_pass() {
        let q = Quantizer::paper();
        for (m, k, n) in [(16, 32, 16), (11, 13, 7), (40, 24, 17)] {
            let a = spiky(m, k);
            let b = spiky(k, n);
            let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
            let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
            let (raw, _) = pa.matmul(&pb).unwrap();
            let want = MatF32::from_fn(raw.rows(), raw.cols(), |i, j| {
                (raw.get(i, j) * 0.25).tanh()
            });
            let mut epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
                for i in 0..ctx.imax {
                    for v in &mut tile[i * ctx.b..][..ctx.jmax] {
                        *v = (*v * 0.25).tanh();
                    }
                }
            };
            let (got, report) = pa
                .matmul_with_epilogue(&pb, &mut AbftOptions::default(), &mut epi)
                .unwrap();
            assert!(report.clean(), "{report:?}");
            assert_bits_eq(&got, &want);
        }
    }

    #[test]
    fn epilogue_skips_uncorrected_chains_and_runs_on_repaired_ones() {
        let q = Quantizer::paper();
        let a = spiky(16, 32);
        let b = spiky(32, 16);
        let pa = AbftPacked::quantize_pack_lhs(&q, &a).unwrap();
        let pb = AbftPacked::quantize_pack_rhs(&q, &b).unwrap();
        let (raw, _) = pa.matmul(&pb).unwrap();
        // Chain (0,0): 3-element smear — uncorrectable, epilogue must not
        // run there. Chain (1,1): single-bit flip — repaired, epilogue
        // sees the corrected bits.
        let mut tamper = |bi: usize, bj: usize, acc: &mut [i64]| -> u64 {
            if (bi, bj) == (0, 0) {
                acc[0] += 1 << 12;
                acc[9] += 1 << 13;
                acc[18] += 1 << 14;
                3
            } else if (bi, bj) == (1, 1) {
                acc[27] ^= 1 << 17;
                1
            } else {
                0
            }
        };
        let mut opts = AbftOptions {
            no_verify: false,
            tamper: Some(&mut tamper),
        };
        let mut applied = 0u64;
        let mut epi = |tile: &mut [f32], ctx: &EpilogueCtx| {
            for i in 0..ctx.imax {
                for v in &mut tile[i * ctx.b..][..ctx.jmax] {
                    *v += 1.0;
                    applied += 1;
                }
            }
        };
        let (got, report) = pa.matmul_with_epilogue(&pb, &mut opts, &mut epi).unwrap();
        assert_eq!(report.uncorrected, vec![(0, 0)]);
        assert_eq!(report.corrected_elements, 1);
        // Epilogue covered every tile except the condemned one.
        assert_eq!(applied, 16 * 16 - 64);
        for i in 0..16 {
            for j in 0..16 {
                if i < 8 && j < 8 {
                    continue; // condemned chain: raw (tampered) bits.
                }
                assert_eq!(
                    got.get(i, j).to_bits(),
                    (raw.get(i, j) + 1.0).to_bits(),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn plane_site_stripes_tiles_across_brams() {
        assert_eq!(plane_site(0, 0, 64), (0, 0));
        assert_eq!(plane_site(5, 63, 64), (5, 63));
        assert_eq!(plane_site(16, 0, 64), (0, 64));
        assert_eq!(plane_site(37, 10, 64), (5, 2 * 64 + 10));
    }

    #[test]
    fn checksum_lanes_cost_a_quarter_of_mantissa_bytes_at_b8() {
        let q = Quantizer::paper();
        let p = AbftPacked::quantize_pack_lhs(&q, &spiky(16, 16)).unwrap();
        // 4 tiles × 8 lanes × 2 bytes = 64 bytes vs 256 mantissas.
        assert_eq!(p.checksum_bytes(), 64);
    }
}

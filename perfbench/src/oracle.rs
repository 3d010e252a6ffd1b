//! Independent references the benchmark checks every timed operation
//! against, and the hand-written native kernels and bandwidth probe the
//! `native_large` workload compares the program's kernels with.
//!
//! Nothing here calls into the program except `checksum_f64`, the
//! digest the service answers with (the oracle recomputes it over its
//! own output) and the generators that produce the inputs.

use asap_matrices::Triplets;
use std::hint::black_box;
use std::time::Instant;

/// Prefetch distance of the paper's schedule (Section 4.3).
pub const DISTANCE: usize = 45;

/// Row-sequential CSR built by the benchmark itself from triplets:
/// entries ordered by (row, column), duplicates summed in input order.
/// Its products add each row's terms in column order starting from
/// zero, the order the program's kernels use, so outputs compare
/// bit for bit.
pub struct RefCsr {
    pub nrows: usize,
    pub ncols: usize,
    pub pos: Vec<u32>,
    pub crd: Vec<u32>,
    pub vals: Vec<f64>,
}

impl RefCsr {
    pub fn from_triplets(t: &Triplets) -> RefCsr {
        let n = t.nnz();
        assert!(
            n < u32::MAX as usize && t.ncols <= u32::MAX as usize,
            "reference CSR holds 32-bit indices"
        );
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (t.rows[i], t.cols[i]));
        let mut pos = vec![0u32; t.nrows + 1];
        let mut crd = Vec::with_capacity(n);
        let mut vals: Vec<f64> = Vec::with_capacity(n);
        let mut last: Option<(usize, usize)> = None;
        for i in order {
            let key = (t.rows[i], t.cols[i]);
            if last == Some(key) {
                *vals.last_mut().expect("a duplicate follows an entry") += t.vals[i];
            } else {
                pos[key.0 + 1] += 1;
                crd.push(key.1 as u32);
                vals.push(t.vals[i]);
                last = Some(key);
            }
        }
        for r in 0..t.nrows {
            pos[r + 1] += pos[r];
        }
        RefCsr {
            nrows: t.nrows,
            ncols: t.ncols,
            pos,
            crd,
            vals,
        }
    }

    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    fn row(&self, i: usize) -> std::ops::Range<usize> {
        self.pos[i] as usize..self.pos[i + 1] as usize
    }

    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        (0..self.nrows)
            .map(|i| {
                let mut acc = 0.0;
                for j in self.row(i) {
                    acc += self.vals[j] * x[self.crd[j] as usize];
                }
                acc
            })
            .collect()
    }

    /// `A·C` for a row-major `ncols × k` dense `c`.
    pub fn spmm(&self, c: &[f64], k: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.nrows * k];
        for i in 0..self.nrows {
            let o = &mut out[i * k..(i + 1) * k];
            for j in self.row(i) {
                let a = self.vals[j];
                let b = &c[self.crd[j] as usize * k..][..k];
                for (o, b) in o.iter_mut().zip(b) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// [`spmv`](Self::spmv) with the ASaP schedule written by hand: the
    /// coordinate stream prefetched `2·d` ahead and the gathered `x`
    /// element of entry `min(j + d, nnz - 1)`.
    pub fn spmv_prefetched(&self, x: &[f64], d: usize) -> Vec<f64> {
        let last = self.nnz().saturating_sub(1);
        (0..self.nrows)
            .map(|i| {
                let mut acc = 0.0;
                for j in self.row(i) {
                    prefetch(&self.crd, j + 2 * d);
                    prefetch(x, self.crd[(j + d).min(last)] as usize);
                    acc += self.vals[j] * x[self.crd[j] as usize];
                }
                acc
            })
            .collect()
    }

    /// [`spmm`](Self::spmm) with the same schedule, prefetching the
    /// first element of the gathered `C` row.
    pub fn spmm_prefetched(&self, c: &[f64], k: usize, d: usize) -> Vec<f64> {
        let last = self.nnz().saturating_sub(1);
        let mut out = vec![0.0; self.nrows * k];
        for i in 0..self.nrows {
            let o = &mut out[i * k..(i + 1) * k];
            for j in self.row(i) {
                prefetch(&self.crd, j + 2 * d);
                prefetch(c, self.crd[(j + d).min(last)] as usize * k);
                let a = self.vals[j];
                let b = &c[self.crd[j] as usize * k..][..k];
                for (o, b) in o.iter_mut().zip(b) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Bytes a CSR kernel must move at least once, with 32-bit indices:
    /// the pos, crd and value arrays, the dense operand and the output.
    /// Computed from the shapes, not measured.
    pub fn computed_bytes(&self, k: usize) -> u64 {
        let idx = 4 * (self.pos.len() + self.crd.len()) as u64;
        let dense = 8 * (self.ncols * k + self.nrows * k) as u64;
        idx + 8 * self.vals.len() as u64 + dense
    }
}

/// Hint the cache hierarchy to fetch `base[i]`; out-of-range indices are
/// harmless (the ASaP schedule runs past each array's end by design).
#[inline(always)]
fn prefetch<T>(base: &[T], i: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT1 never faults and never dereferences its
    // operand (Intel SDM vol. 2B), and the address is formed with
    // `wrapping_add`, which carries no in-bounds obligation; no memory
    // is read or written.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T1};
        _mm_prefetch::<_MM_HINT_T1>(base.as_ptr().wrapping_add(i) as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (base, i);
}

/// The service's SpMV operand, written out independently of the
/// program: `x[i] = 0.25 + (i mod 31)·0.125`.
pub fn service_x(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.25 + (i % 31) as f64 * 0.125).collect()
}

/// The service's row-major SpMM operand: `c[i] = 0.5 + (i mod 13)·0.25`.
pub fn service_c(n: usize, k: usize) -> Vec<f64> {
    (0..n * k).map(|i| 0.5 + (i % 13) as f64 * 0.25).collect()
}

/// The figure harness's SpMM operand: `c[i] = 0.5 + (i mod 17)/16`.
pub fn figure_c(n: usize, k: usize) -> Vec<f64> {
    (0..n * k).map(|i| 0.5 + (i % 17) as f64 * 0.0625).collect()
}

/// Values the server gives a pattern (binary) matrix, so resident
/// `gen:` matrices can be rebuilt here: `v[i] = 0.25 + (i mod 7)·0.1`.
pub fn devalue_binary(t: &mut Triplets) {
    if t.binary {
        for (i, v) in t.vals.iter_mut().enumerate() {
            *v = 0.25 + (i % 7) as f64 * 0.1;
        }
        t.binary = false;
    }
}

/// STREAM-style triad `a = b + s·c` over three arrays of `bytes / 24`
/// doubles each. Returns the best of `reps` passes in GB/s, counting
/// 24 bytes per element (two reads and one write; write-allocate
/// traffic is not counted, as in STREAM).
pub fn triad_gb_per_s(bytes: usize, reps: usize) -> f64 {
    let n = bytes / 24;
    let b = vec![1.5f64; n];
    let c = vec![0.5f64; n];
    let mut a = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    for r in 0..reps {
        let s = black_box(2.0 + r as f64);
        let t0 = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + s * c;
        }
        black_box(&a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (24 * n) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Triplets {
        let mut t = Triplets::new(3, 4);
        t.push(2, 3, 1.0);
        t.push(0, 1, 2.0);
        t.push(0, 1, 0.5); // duplicate, summed
        t.push(2, 0, -1.0);
        t
    }

    #[test]
    fn reference_products_match_a_dense_loop() {
        let r = RefCsr::from_triplets(&tiny());
        assert_eq!(r.pos, vec![0, 1, 1, 3]);
        assert_eq!(r.crd, vec![1, 0, 3]);
        let x = service_x(4);
        let y = r.spmv(&x);
        assert_eq!(y, vec![2.5 * x[1], 0.0, -x[0] + x[3]]);
        assert_eq!(r.spmv_prefetched(&x, DISTANCE), y);
        let c = service_c(4, 2);
        let out = r.spmm(&c, 2);
        assert_eq!(out[0], 2.5 * c[2]);
        assert_eq!(out[5], -c[1] + c[7]);
        assert_eq!(r.spmm_prefetched(&c, 2, DISTANCE), out);
    }

    #[test]
    fn operands_match_the_service_contract() {
        assert_eq!(service_x(40), asap_core::service_x(40));
        assert_eq!(service_c(9, 8), asap_core::service_c(9, 8).as_f64());
    }
}

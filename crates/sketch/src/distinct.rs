//! HyperLogLog++ cardinality sketch for continuous `COUNT DISTINCT`
//! (Heule et al., "HyperLogLog in Practice"; Flajolet et al. for the
//! base estimator).
//!
//! Digest's variant is stripped for replay determinism (DESIGN.md §17):
//! the key path uses the fixed SplitMix64 mixer ([`digest_stats::splitmix64`])
//! instead of a keyed hash, there is no sparse representation and no
//! hash-collection iteration anywhere, and the register file is a flat
//! `Vec<u8>` whose dump order is the register index — so serialization,
//! merging, and estimation are all byte-deterministic pure functions.
//! The relative cardinality error `≈ 1.04 / √m` (Flajolet et al., the
//! standard-error equation) is mapped onto the paper's `(ε, p)` contract
//! (§II, Eq. 1) by sizing `m = 2^b` from the relative half-width — see
//! [`HllSketch::for_relative_error`].

use crate::error::SketchError;
use crate::Result;

/// Magic prefix of the canonical serialization (version 1).
const MAGIC: &[u8; 4] = b"HLL1";

/// Smallest supported register exponent (m = 16).
const MIN_P_BITS: u8 = 4;

/// Largest supported register exponent (m = 65536, 64 KiB per sketch).
const MAX_P_BITS: u8 = 16;

/// Dense HyperLogLog++ register file with a fixed 64-bit mixer.
///
/// Follows the trans/merge/final/serialize aggregate shape (SNIPPETS.md
/// 1–2): [`HllSketch::accumulate_key`] folds one key in,
/// [`HllSketch::merge`] takes the per-register maximum (idempotent, so
/// re-observing a panel member across occasions is harmless — the §IV-B
/// retain/replace analogue for cardinality), [`HllSketch::estimate`]
/// finalizes with the Flajolet et al. standard-error equation's
/// harmonic-mean estimator plus the HLL++ linear-counting fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HllSketch {
    /// Register index width b; m = 2^b registers.
    p_bits: u8,
    /// Dense register file, indexed by the top `p_bits` of the mixed key.
    registers: Vec<u8>,
}

impl HllSketch {
    /// Creates an empty sketch with `2^p_bits` registers
    /// (`4 ≤ p_bits ≤ 16`; the m of the Flajolet et al. standard-error
    /// equation `1.04/√m`).
    pub fn new(p_bits: u8) -> Result<Self> {
        if !(MIN_P_BITS..=MAX_P_BITS).contains(&p_bits) {
            return Err(SketchError::InvalidConfig {
                reason: "p_bits must be between 4 and 16",
            });
        }
        Ok(Self {
            p_bits,
            registers: vec![0u8; 1usize << p_bits],
        })
    }

    /// Sizes a sketch so the standard error `1.04/√m` scaled by the
    /// confidence quantile `z` stays within the relative half-width
    /// `rel_epsilon` — the DESIGN.md §17 mapping of the paper's `(ε, p)`
    /// contract (§II, Eq. 1) onto relative cardinality error.
    pub fn for_relative_error(rel_epsilon: f64, z: f64) -> Result<Self> {
        if !rel_epsilon.is_finite() || rel_epsilon <= 0.0 || !z.is_finite() || z <= 0.0 {
            return Err(SketchError::InvalidConfig {
                reason: "relative error and z must be positive finite",
            });
        }
        let ratio = 1.04 * z / rel_epsilon;
        let bits = (ratio * ratio).log2().ceil();
        let clamped = bits.clamp(f64::from(MIN_P_BITS), f64::from(MAX_P_BITS));
        // In [4, 16] by the clamp above.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let p_bits = clamped as u8;
        Self::new(p_bits)
    }

    /// Register index width b (m = 2^b; see the standard-error equation
    /// `1.04/√m` of Flajolet et al.).
    #[must_use]
    pub fn p_bits(&self) -> u8 {
        self.p_bits
    }

    /// Relative standard error `1.04/√m` of this configuration (the
    /// Flajolet et al. standard-error equation; DESIGN.md §17 maps it
    /// onto the §II contract).
    #[must_use]
    pub fn standard_error(&self) -> f64 {
        1.04 / self.m().sqrt()
    }

    fn m(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let m = self.registers.len() as f64;
        m
    }

    /// Folds one raw 64-bit key into the sketch (the *trans* step;
    /// §IV sampling and the sweep estimator of DESIGN.md §17 feed cell
    /// keys through [`crate::value_cell`] and this mixer).
    pub fn accumulate_key(&mut self, key: u64) {
        let hashed = digest_stats::splitmix64(key);
        let shift = 64 - u32::from(self.p_bits);
        let idx = usize::try_from(hashed >> shift).unwrap_or(0);
        let tail = hashed << u32::from(self.p_bits);
        let max_rho = u32::from(64 - self.p_bits) + 1;
        let rho = tail.leading_zeros().saturating_add(1).min(max_rho);
        let rho = u8::try_from(rho).unwrap_or(u8::MAX);
        if let Some(reg) = self.registers.get_mut(idx) {
            if *reg < rho {
                *reg = rho;
            }
        }
    }

    /// Folds one quantized value cell in (the `COUNT DISTINCT` key
    /// domain of DESIGN.md §17; the oracle of §VI applies the same
    /// [`crate::value_cell`] map so audits compare like with like).
    pub fn accumulate_value(&mut self, value: f64) {
        #[allow(clippy::cast_sign_loss)]
        let key = crate::value_cell(value) as u64;
        self.accumulate_key(key);
    }

    /// Merges by per-register maximum (the *combine* step; losslessly
    /// equals the sketch of the union stream, so panel and occasion
    /// merges per §IV-B retain/replace are exact for cardinality).
    pub fn merge(&mut self, other: &HllSketch) -> Result<()> {
        if self.p_bits != other.p_bits {
            return Err(SketchError::MergeMismatch {
                reason: "HyperLogLog merge requires identical p_bits",
            });
        }
        for (mine, theirs) in self.registers.iter_mut().zip(&other.registers) {
            if *mine < *theirs {
                *mine = *theirs;
            }
        }
        Ok(())
    }

    /// Finalizes the cardinality estimate: harmonic-mean raw estimator
    /// (Flajolet et al., the standard-error equation family) with the
    /// HLL++ linear-counting fallback for small ranges (Heule et al.
    /// §5; the empirical bias-correction table is deliberately omitted —
    /// DESIGN.md §17 documents the deviation and its audited impact).
    #[must_use]
    pub fn estimate(&self) -> f64 {
        let m = self.m();
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let mut sum = 0.0;
        let mut zeros = 0u64;
        for reg in &self.registers {
            sum += (-f64::from(*reg)).exp2();
            if *reg == 0 {
                zeros = zeros.saturating_add(1);
            }
        }
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            #[allow(clippy::cast_precision_loss)]
            let v = zeros as f64;
            return m * (m / v).ln();
        }
        raw
    }

    /// Canonical serialization: magic, register width, then the dense
    /// register file in index order — equal sketches are equal byte
    /// strings, the replay/audit invariant of DESIGN.md §17 (paper §VI).
    #[must_use]
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.registers.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&u64::from(self.p_bits).to_be_bytes());
        out.extend_from_slice(&self.registers);
        out
    }

    /// Inverse of [`HllSketch::serialize`]; validates the magic, the
    /// `p_bits` domain, the register-file length, and the per-register
    /// rank bound `ρ ≤ 64 − b + 1` (Flajolet et al.'s rank equation), so
    /// round trips are byte-identical (§VI replay gate).
    pub fn deserialize(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 12 || &bytes[..4] != MAGIC {
            return Err(SketchError::InvalidBytes {
                reason: "bad HyperLogLog header",
            });
        }
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&bytes[4..12]);
        let p_bits =
            u8::try_from(u64::from_be_bytes(raw)).map_err(|_| SketchError::InvalidBytes {
                reason: "p_bits overflows u8",
            })?;
        if !(MIN_P_BITS..=MAX_P_BITS).contains(&p_bits) {
            return Err(SketchError::InvalidBytes {
                reason: "p_bits out of domain",
            });
        }
        let registers = bytes[12..].to_vec();
        if registers.len() != 1usize << p_bits {
            return Err(SketchError::InvalidBytes {
                reason: "register file length mismatch",
            });
        }
        let max_rho = 64 - p_bits + 1;
        if registers.iter().any(|r| *r > max_rho) {
            return Err(SketchError::InvalidBytes {
                reason: "register rank exceeds bound",
            });
        }
        Ok(Self { p_bits, registers })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_config() {
        assert!(HllSketch::new(3).is_err());
        assert!(HllSketch::new(17).is_err());
        assert!(HllSketch::new(4).is_ok());
    }

    #[test]
    fn sizing_clamps_to_domain() {
        let tight = HllSketch::for_relative_error(1e-6, 2.0).unwrap();
        assert_eq!(tight.p_bits(), 16);
        let loose = HllSketch::for_relative_error(10.0, 1.0).unwrap();
        assert_eq!(loose.p_bits(), 4);
        assert!(HllSketch::for_relative_error(0.0, 1.0).is_err());
    }

    #[test]
    fn counts_small_sets_exactly_enough() {
        let mut s = HllSketch::new(12).unwrap();
        for k in 0..100u64 {
            s.accumulate_key(k);
        }
        let est = s.estimate();
        assert!((est - 100.0).abs() < 5.0, "est={est}");
    }

    #[test]
    fn repeated_keys_do_not_inflate() {
        let mut s = HllSketch::new(12).unwrap();
        for _ in 0..50 {
            for k in 0..20u64 {
                s.accumulate_key(k);
            }
        }
        let est = s.estimate();
        assert!((est - 20.0).abs() < 3.0, "est={est}");
    }

    #[test]
    fn large_cardinality_within_standard_error() {
        let mut s = HllSketch::new(12).unwrap();
        let n = 50_000u64;
        for k in 0..n {
            s.accumulate_key(k);
        }
        let est = s.estimate();
        let rel = (est - 50_000.0).abs() / 50_000.0;
        assert!(rel < 4.0 * s.standard_error(), "rel={rel}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HllSketch::new(10).unwrap();
        let mut b = HllSketch::new(10).unwrap();
        let mut union = HllSketch::new(10).unwrap();
        for k in 0..500u64 {
            a.accumulate_key(k);
            union.accumulate_key(k);
        }
        for k in 300..900u64 {
            b.accumulate_key(k);
            union.accumulate_key(k);
        }
        a.merge(&b).unwrap();
        assert_eq!(a.serialize(), union.serialize());
    }

    #[test]
    fn merge_rejects_width_mismatch() {
        let mut a = HllSketch::new(10).unwrap();
        let b = HllSketch::new(11).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn serialize_round_trips() {
        let mut s = HllSketch::new(8).unwrap();
        for k in 0..1000u64 {
            s.accumulate_key(k.wrapping_mul(2_654_435_761));
        }
        let bytes = s.serialize();
        let back = HllSketch::deserialize(&bytes).unwrap();
        assert_eq!(back.serialize(), bytes);
        assert_eq!(back.estimate(), s.estimate());
    }

    #[test]
    fn deserialize_rejects_corruption() {
        let s = HllSketch::new(4).unwrap();
        let mut bytes = s.serialize();
        assert!(HllSketch::deserialize(&bytes[..8]).is_err());
        bytes[11] = 99;
        assert!(HllSketch::deserialize(&bytes).is_err());
        let mut overflow = HllSketch::new(4).unwrap().serialize();
        overflow[12] = 255;
        assert!(HllSketch::deserialize(&overflow).is_err());
    }
}

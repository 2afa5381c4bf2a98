/// Mixed-radix encoder for shared states composed of several small
/// fields (flags, channels, bounded counters).
///
/// The benchmark models keep Boolean-program-style shared variables;
/// `FieldEnc` maps a tuple of field values to the dense shared-state
/// id a [`Cpds`](cuba_pds::Cpds) needs, and back.
///
/// # Example
///
/// ```
/// use cuba_benchmarks::FieldEnc;
///
/// // fields: req ∈ 0..3, flag ∈ 0..2, stopped ∈ 0..2
/// let enc = FieldEnc::new(&[3, 2, 2]);
/// assert_eq!(enc.total(), 12);
/// let q = enc.encode(&[2, 1, 0]);
/// assert_eq!(enc.decode(q), vec![2, 1, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldEnc {
    sizes: Vec<u32>,
}

impl FieldEnc {
    /// Creates an encoder for fields with the given cardinalities.
    ///
    /// # Panics
    ///
    /// Panics if any field size is zero.
    pub fn new(sizes: &[u32]) -> Self {
        assert!(sizes.iter().all(|&s| s > 0), "field sizes must be positive");
        FieldEnc {
            sizes: sizes.to_vec(),
        }
    }

    /// The number of encoded states (product of field sizes).
    pub fn total(&self) -> u32 {
        self.sizes.iter().product()
    }

    /// Encodes a value tuple (little-endian mixed radix).
    ///
    /// # Panics
    ///
    /// Panics if the tuple length or any value is out of range.
    pub fn encode(&self, vals: &[u32]) -> u32 {
        assert_eq!(vals.len(), self.sizes.len(), "wrong number of fields");
        let mut q = 0u32;
        let mut mult = 1u32;
        for (v, s) in vals.iter().zip(&self.sizes) {
            assert!(v < s, "field value {v} out of range 0..{s}");
            q += v * mult;
            mult *= s;
        }
        q
    }

    /// Decodes a shared-state id back into field values.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn decode(&self, q: u32) -> Vec<u32> {
        assert!(q < self.total(), "state {q} out of range");
        let mut rest = q;
        self.sizes
            .iter()
            .map(|&s| {
                let v = rest % s;
                rest /= s;
                v
            })
            .collect()
    }

    /// Enumerates all value tuples (in encoding order).
    pub fn iter_all(&self) -> impl Iterator<Item = Vec<u32>> + '_ {
        (0..self.total()).map(|q| self.decode(q))
    }

    /// Encodes a tuple equal to `vals` except field `idx` set to `v`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range inputs.
    pub fn with(&self, vals: &[u32], idx: usize, v: u32) -> u32 {
        let mut copy = vals.to_vec();
        copy[idx] = v;
        self.encode(&copy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all() {
        let enc = FieldEnc::new(&[3, 2, 4]);
        assert_eq!(enc.total(), 24);
        for q in 0..enc.total() {
            assert_eq!(enc.encode(&enc.decode(q)), q);
        }
    }

    #[test]
    fn encoding_is_bijective() {
        let enc = FieldEnc::new(&[2, 3]);
        let mut seen = std::collections::HashSet::new();
        for vals in enc.iter_all() {
            assert!(seen.insert(enc.encode(&vals)));
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn with_replaces_one_field() {
        let enc = FieldEnc::new(&[3, 2, 2]);
        let vals = vec![1, 0, 1];
        let q = enc.with(&vals, 1, 1);
        assert_eq!(enc.decode(q), vec![1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_value_panics() {
        FieldEnc::new(&[2]).encode(&[2]);
    }

    #[test]
    #[should_panic(expected = "wrong number")]
    fn wrong_arity_panics() {
        FieldEnc::new(&[2, 2]).encode(&[1]);
    }
}

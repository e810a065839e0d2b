//! An inline small-vector: stack storage for the common case, heap spill
//! for the rare overflow.
//!
//! The simulator's hot loops build many short lists — holder sets of at
//! most `max_replicas + 1` clients, replica plans, candidate pools — and
//! allocating a `Vec` per list dominates their cost. [`InlineVec`] keeps
//! up to `N` elements in an inline array (no allocation at all) and
//! transparently moves to a heap `Vec` only when the `N+1`-th element
//! arrives, preserving `Vec` semantics either way. Implemented in-tree
//! with safe code only, per the repo's no-new-dependencies policy.

use core::fmt;
use core::ops::{Deref, DerefMut};

/// A growable list that stores its first `N` elements inline.
///
/// `T: Copy + Default` keeps the implementation entirely safe: the inline
/// buffer is a plain initialized array, and unused slots simply hold
/// `T::default()`.
#[derive(Clone)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    /// Number of live elements in `buf`; meaningful only while `spill`
    /// is empty.
    len: usize,
    buf: [T; N],
    /// Once non-empty, holds *all* elements and `buf` is dead.
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector (no heap allocation).
    pub fn new() -> Self {
        Self {
            len: 0,
            buf: [T::default(); N],
            spill: Vec::new(),
        }
    }

    /// Creates a vector holding a copy of `items`.
    pub fn from_slice(items: &[T]) -> Self {
        let mut v = Self::new();
        v.extend_from_slice(items);
        v
    }

    /// Appends an element, spilling to the heap on inline overflow.
    pub fn push(&mut self, value: T) {
        if self.spill.is_empty() && self.len < N {
            self.buf[self.len] = value;
            self.len += 1;
        } else {
            if self.spill.is_empty() {
                self.spill.reserve(N + 8);
                self.spill.extend_from_slice(&self.buf[..self.len]);
                self.len = 0;
            }
            self.spill.push(value);
        }
    }

    /// Appends every element of `items`.
    pub fn extend_from_slice(&mut self, items: &[T]) {
        for &v in items {
            self.push(v);
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        if self.spill.is_empty() {
            self.len
        } else {
            self.spill.len()
        }
    }

    /// Returns `true` when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every element; keeps any heap capacity for reuse but
    /// returns to inline storage for subsequent pushes.
    pub fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        if self.spill.is_empty() {
            &self.buf[..self.len]
        } else {
            &self.spill
        }
    }

    /// The elements as a mutable slice.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        if self.spill.is_empty() {
            &mut self.buf[..self.len]
        } else {
            &mut self.spill
        }
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for InlineVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        self.as_mut_slice()
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize, const M: usize> PartialEq<InlineVec<T, M>>
    for InlineVec<T, N>
{
    fn eq(&self, other: &InlineVec<T, M>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<Vec<T>> for InlineVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq<&[T]> for InlineVec<T, N> {
    fn eq(&self, other: &&[T]) -> bool {
        self.as_slice() == *other
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        assert!(v.is_empty());
        for i in 0..4 {
            v.push(i);
        }
        assert!(v.spill.is_empty(), "4 elements fit in N=4 inline storage");
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        assert_eq!(v.len(), 4);
    }

    #[test]
    fn spills_transparently_past_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..10 {
            v.push(i);
        }
        assert!(!v.spill.is_empty());
        assert_eq!(v.len(), 10);
        assert_eq!(v.as_slice(), (0..10).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn clear_returns_to_inline_storage() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..5 {
            v.push(i);
        }
        assert!(!v.spill.is_empty());
        v.clear();
        assert!(v.is_empty() && v.spill.is_empty());
        v.push(7);
        assert!(
            v.spill.is_empty(),
            "post-clear pushes use the inline buffer"
        );
        assert_eq!(v.as_slice(), &[7]);
    }

    #[test]
    fn deref_gives_full_slice_api() {
        let v: InlineVec<u32, 8> = InlineVec::from_slice(&[3, 1, 2]);
        assert_eq!(v[0], 3);
        assert_eq!(v.iter().copied().max(), Some(3));
        let mut m = v.clone();
        m.sort_unstable();
        assert_eq!(m, vec![1, 2, 3]);
    }

    #[test]
    fn equality_ignores_storage_mode() {
        let inline: InlineVec<u32, 8> = InlineVec::from_slice(&[1, 2, 3]);
        let spilled: InlineVec<u32, 2> = InlineVec::from_slice(&[1, 2, 3]);
        assert_eq!(inline, spilled);
        assert_eq!(inline, vec![1, 2, 3]);
        assert_eq!(spilled, &[1u32, 2, 3][..]);
    }

    #[test]
    fn from_iterator_collects() {
        let v: InlineVec<u32, 4> = (0..6).collect();
        assert_eq!(v.len(), 6);
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn debug_prints_live_elements_only() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        v.push(9);
        assert_eq!(format!("{v:?}"), "[9]");
    }
}

//! Queues whose capacity survives a clone.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

/// A `Vec` or `VecDeque` sized once to its high-water mark, whose `clone()`
/// keeps that capacity.
///
/// The std containers clone only their `len` slots, so a cloned simulator
/// would regrow every queue during its first busy cycles. The queues the
/// cycle loop pushes to are wrapped in `Presized` instead, which makes
/// `Simulator::clone` hand back a fork that is already in the
/// allocation-free steady state. Everything else reaches the inner
/// container through `Deref`.
#[derive(Debug, Default)]
pub struct Presized<C>(C);

impl<T> Presized<Vec<T>> {
    /// An empty vector with room for `cap` elements.
    pub fn vec(cap: usize) -> Self {
        Presized(Vec::with_capacity(cap))
    }
}

impl<T> Presized<VecDeque<T>> {
    /// An empty deque with room for `cap` elements.
    pub fn deque(cap: usize) -> Self {
        Presized(VecDeque::with_capacity(cap))
    }
}

impl<C> From<C> for Presized<C> {
    fn from(c: C) -> Self {
        Presized(c)
    }
}

impl<T: Clone> Clone for Presized<Vec<T>> {
    fn clone(&self) -> Self {
        let mut v = Vec::with_capacity(self.0.capacity());
        v.extend_from_slice(&self.0);
        Presized(v)
    }
}

impl<T: Clone> Clone for Presized<VecDeque<T>> {
    fn clone(&self) -> Self {
        let mut d = VecDeque::with_capacity(self.0.capacity());
        d.extend(self.0.iter().cloned());
        Presized(d)
    }
}

impl<C> Deref for Presized<C> {
    type Target = C;
    fn deref(&self) -> &C {
        &self.0
    }
}

impl<C> DerefMut for Presized<C> {
    fn deref_mut(&mut self) -> &mut C {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_keep_capacity_and_contents() {
        let mut v: Presized<Vec<u32>> = Presized::vec(64);
        v.push(7);
        let c = v.clone();
        assert_eq!(*c, *v);
        assert!(c.capacity() >= 64);

        let mut d: Presized<VecDeque<u32>> = Presized::deque(32);
        d.push_back(1);
        d.push_front(0);
        let c = d.clone();
        assert_eq!(c.iter().copied().collect::<Vec<_>>(), [0, 1]);
        assert!(c.capacity() >= 32);
    }
}

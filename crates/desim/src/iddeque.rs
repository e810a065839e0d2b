use core::ops::{Index, IndexMut};
use std::collections::VecDeque;

/// A sliding window over a monotone id space: slot `i` belongs to id
/// `first + i`, and `T::default()` fills the ids never stored. Ads are
/// numbered by a counter and settle in rough id order, so the ad book
/// (`adpf_overbooking::AdBook`) keeps its per-ad states in one and its
/// open records' slab positions in another; its tests cover both.
#[derive(Debug, Default)]
pub struct IdDeque<T> {
    slots: VecDeque<T>,
    first: u64,
}

impl<T: Default> IdDeque<T> {
    /// The slot of `id`, or `None` when `id` lies outside the window.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots
            .get(usize::try_from(id.checked_sub(self.first)?).ok()?)
    }

    /// Mutable [`IdDeque::get`].
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.slots
            .get_mut(usize::try_from(id.checked_sub(self.first)?).ok()?)
    }

    /// The slot of `id`, growing the window towards whichever end `id`
    /// lies beyond (new slots hold `T::default()`), so ids may arrive in
    /// any order. An empty window restarts at `id`.
    pub fn entry(&mut self, id: u64) -> &mut T {
        if self.slots.is_empty() {
            self.first = id;
        }
        while id < self.first {
            self.slots.push_front(T::default());
            self.first -= 1;
        }
        let i = (id - self.first) as usize;
        while self.slots.len() <= i {
            self.slots.push_back(T::default());
        }
        &mut self.slots[i]
    }

    /// Pops slots off the front while `retire(id, slot)` holds.
    pub fn trim_front(&mut self, mut retire: impl FnMut(u64, &T) -> bool) {
        while let Some(slot) = self.slots.front() {
            if !retire(self.first, slot) {
                break;
            }
            self.slots.pop_front();
            self.first += 1;
        }
    }

    /// Pops slots off the back while `retire(slot)` holds.
    pub fn trim_back(&mut self, mut retire: impl FnMut(&T) -> bool) {
        while self.slots.back().is_some_and(&mut retire) {
            self.slots.pop_back();
        }
    }

    /// `(id, slot)` for every slot of the window, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.first..).zip(self.slots.iter())
    }
}

/// Indexes a slot by id; panics when `id` lies outside the window.
impl<T> Index<u64> for IdDeque<T> {
    type Output = T;

    fn index(&self, id: u64) -> &T {
        &self.slots[(id - self.first) as usize]
    }
}

impl<T> IndexMut<u64> for IdDeque<T> {
    fn index_mut(&mut self, id: u64) -> &mut T {
        &mut self.slots[(id - self.first) as usize]
    }
}

/// The end of a chain: no next node, or the head of an empty queue.
const NIL: u32 = u32::MAX;

/// Many FIFO queues whose entries share one slab.
///
/// Queue `q` is a chain of slab nodes from `ends[q].0` to `ends[q].1`,
/// linked by a `u32` next-index held beside each value; nodes that drain
/// or are retained away join a free chain that later pushes reuse first.
/// So the slab grows to the peak number of entries live across all the
/// queues at once, where one `Vec` per queue would each keep its own
/// high-water capacity. Once the slab has reached that peak, pushing,
/// draining and retaining allocate nothing.
///
/// The engine keeps its per-client slot times, pending reports and
/// outboxes in one each (`adpf_core`'s client table) and the ad book its
/// per-client cancellation queues in another (`adpf_overbooking::AdBook`).
#[derive(Debug)]
pub struct SlabQueues<T> {
    /// `(head, tail)` node of each queue; both `NIL` when it is empty.
    ends: Vec<(u32, u32)>,
    /// Node values, live or free.
    values: Vec<T>,
    /// Each node's successor in its queue's chain or in the free chain.
    next: Vec<u32>,
    /// Head of the free chain.
    free: u32,
}

impl<T> Default for SlabQueues<T> {
    fn default() -> Self {
        Self {
            ends: Vec::new(),
            values: Vec::new(),
            next: Vec::new(),
            free: NIL,
        }
    }
}

impl<T: Copy> SlabQueues<T> {
    /// Number of queues.
    pub fn queues(&self) -> usize {
        self.ends.len()
    }

    /// Adds empty queues until there are at least `n`.
    pub fn grow_to(&mut self, n: usize) {
        if n > self.ends.len() {
            self.ends.resize(n, (NIL, NIL));
        }
    }

    /// Nodes in the slab, live or free: the peak number of entries live
    /// at once so far.
    pub fn slab_len(&self) -> usize {
        self.values.len()
    }

    /// Appends `value` to the back of queue `q`.
    ///
    /// # Panics
    ///
    /// Panics if there is no queue `q`, or if `u32::MAX` entries would be
    /// live at once.
    pub fn push(&mut self, q: usize, value: T) {
        let at = if self.free != NIL {
            let at = self.free;
            self.free = self.next[at as usize];
            self.values[at as usize] = value;
            self.next[at as usize] = NIL;
            at
        } else {
            let at = u32::try_from(self.values.len())
                .ok()
                .filter(|&at| at != NIL)
                .expect("fewer than u32::MAX entries live at once");
            self.values.push(value);
            self.next.push(NIL);
            at
        };
        let (head, tail) = &mut self.ends[q];
        if *head == NIL {
            *head = at;
        } else {
            self.next[*tail as usize] = at;
        }
        *tail = at;
    }

    /// The front of queue `q`, or `None` when it is empty or there is no
    /// queue `q`.
    pub fn first(&self, q: usize) -> Option<&T> {
        match self.ends.get(q) {
            Some(&(head, _)) if head != NIL => Some(&self.values[head as usize]),
            _ => None,
        }
    }

    /// Whether queue `q` is empty; a queue that does not exist is.
    pub fn is_empty(&self, q: usize) -> bool {
        self.first(q).is_none()
    }

    /// Hands every entry of queue `q` to `f` in push order and empties
    /// the queue, its nodes freed for reuse. No queue `q` drains nothing.
    pub fn drain(&mut self, q: usize, mut f: impl FnMut(T)) {
        let Some(ends) = self.ends.get_mut(q) else {
            return;
        };
        let (head, tail) = std::mem::replace(ends, (NIL, NIL));
        if head == NIL {
            return;
        }
        let mut at = head;
        while at != NIL {
            f(self.values[at as usize]);
            at = self.next[at as usize];
        }
        // The whole chain joins the free chain in one splice.
        self.next[tail as usize] = self.free;
        self.free = head;
    }

    /// Keeps only the entries of queue `q` for which `keep` holds, in
    /// push order, freeing the others' nodes for reuse; returns how many
    /// it removed. No queue `q` removes nothing.
    pub fn retain(&mut self, q: usize, mut keep: impl FnMut(&T) -> bool) -> usize {
        let Some(&(head, _)) = self.ends.get(q) else {
            return 0;
        };
        let (mut new_head, mut new_tail) = (NIL, NIL);
        let mut removed = 0;
        let mut at = head;
        while at != NIL {
            let after = self.next[at as usize];
            if keep(&self.values[at as usize]) {
                if new_tail == NIL {
                    new_head = at;
                } else {
                    self.next[new_tail as usize] = at;
                }
                new_tail = at;
            } else {
                self.next[at as usize] = self.free;
                self.free = at;
                removed += 1;
            }
            at = after;
        }
        if new_tail != NIL {
            self.next[new_tail as usize] = NIL;
        }
        self.ends[q] = (new_head, new_tail);
        removed
    }
}

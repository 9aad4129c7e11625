//! The VSIDS decision order: a binary max-heap over variables.

use crate::Var;

/// `position` entry of a variable that is not in the heap.
const ABSENT: u32 = u32::MAX;

/// `true` if `a` is decided before `b`: higher activity first, lower index
/// on ties. This is a strict total order for finite activities, so the top
/// of the heap is the same variable whatever order the heap was built in.
#[inline]
fn before(activity: &[f64], a: u32, b: u32) -> bool {
    let (x, y) = (activity[a as usize], activity[b as usize]);
    x > y || (x == y && a < b)
}

/// A binary max-heap of variables ordered by [`before`].
///
/// The heap never owns the activities; every operation that compares reads
/// them from the slice it is given, so the caller keeps the single copy in
/// the solver. Removal is lazy: assigned variables may stay in the heap and
/// are skipped by the caller when popped. Insertion of a new variable is
/// deferred: [`VarHeap::push_var`] registers it as absent, and the caller
/// inserts the ones still unassigned ([`VarHeap::take_new`]) before its next
/// pop, so variables fixed in the meantime never enter the heap.
#[derive(Debug, Clone, Default)]
pub(crate) struct VarHeap {
    heap: Vec<u32>,
    /// `position[v]` = index of `v` in `heap`, or [`ABSENT`].
    position: Vec<u32>,
    /// Variables from this index on were registered after the last
    /// [`VarHeap::take_new`] and have not been offered for insertion yet.
    pending: usize,
}

impl VarHeap {
    /// A heap holding `vars`, over `activity.len()` variables.
    pub(crate) fn build(activity: &[f64], vars: impl IntoIterator<Item = usize>) -> Self {
        let mut h = VarHeap {
            heap: vars.into_iter().map(|v| v as u32).collect(),
            position: vec![ABSENT; activity.len()],
            pending: activity.len(),
        };
        for (i, &v) in h.heap.iter().enumerate() {
            h.position[v as usize] = i as u32;
        }
        h.rebuild(activity);
        h
    }

    /// Registers a new variable (with index `position.len()`), absent until
    /// the caller inserts it after [`VarHeap::take_new`].
    pub(crate) fn push_var(&mut self) {
        self.position.push(ABSENT);
    }

    /// The variables registered since the last call, which the caller
    /// inserts if they are still unassigned.
    pub(crate) fn take_new(&mut self) -> std::ops::Range<usize> {
        let new = self.pending..self.position.len();
        self.pending = self.position.len();
        new
    }

    /// `true` if `v` is in the heap.
    #[cfg(test)]
    pub(crate) fn contains(&self, v: Var) -> bool {
        self.position[v.index()] != ABSENT
    }

    /// Inserts `v` unless it is already in the heap.
    #[inline]
    pub(crate) fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.position[v.index()] != ABSENT {
            return;
        }
        self.position[v.index()] = self.heap.len() as u32;
        self.heap.push(v.0);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores the heap order after the activity of `v` increased.
    #[inline]
    pub(crate) fn increased(&mut self, v: Var, activity: &[f64]) {
        let i = self.position[v.index()];
        if i != ABSENT {
            self.sift_up(i as usize, activity);
        }
    }

    /// Removes and returns the first variable in decision order.
    #[inline]
    pub(crate) fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is non-empty");
        self.position[top as usize] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(Var(top))
    }

    /// Re-establishes the heap order from scratch. Needed after a change
    /// that is not a single increase, such as the activity rescale, which
    /// can round distinct activities to equal ones.
    pub(crate) fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            let p = self.heap[parent];
            if !before(activity, v, p) {
                break;
            }
            self.heap[i] = p;
            self.position[p as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.position[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && before(activity, self.heap[right], self.heap[left]) {
                right
            } else {
                left
            };
            let c = self.heap[child];
            if !before(activity, c, v) {
                break;
            }
            self.heap[i] = c;
            self.position[c as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.position[v as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_then_index_order() {
        let activity = [1.0, 3.0, 3.0, 0.5, 2.0];
        let mut h = VarHeap::build(&activity, [4, 3, 2, 1, 0]);
        let order: Vec<u32> = std::iter::from_fn(|| h.pop(&activity).map(|v| v.0)).collect();
        assert_eq!(order, [1, 2, 4, 0, 3]);
    }
}

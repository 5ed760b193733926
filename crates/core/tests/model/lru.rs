//! `LruList` as it was before the per-LPN link table: slab nodes, a free list and
//! a hash index. The replaced code with its fx hash map swapped for std's (nothing
//! iterates it, so the order cannot show), docs dropped.

use std::collections::HashMap;

use vflash_ftl::Lpn;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    lpn: Lpn,
    prev: usize,
    next: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruList {
    nodes: Vec<Node>,
    free_slots: Vec<usize>,
    index: HashMap<Lpn, usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl LruList {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "lru capacity must be positive");
        LruList {
            nodes: Vec::with_capacity(capacity.min(1024)),
            free_slots: Vec::new(),
            index: HashMap::with_capacity(capacity.min(1024)),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    pub fn contains(&self, lpn: Lpn) -> bool {
        self.index.contains_key(&lpn)
    }

    pub fn least_recent(&self) -> Option<Lpn> {
        (self.tail != NIL).then(|| self.nodes[self.tail].lpn)
    }

    pub fn most_recent(&self) -> Option<Lpn> {
        (self.head != NIL).then(|| self.nodes[self.head].lpn)
    }

    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = NIL;
    }

    fn attach_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    pub fn touch(&mut self, lpn: Lpn) -> bool {
        let Some(&slot) = self.index.get(&lpn) else { return false };
        if self.head != slot {
            self.detach(slot);
            self.attach_front(slot);
        }
        true
    }

    pub fn insert(&mut self, lpn: Lpn) -> Option<Lpn> {
        if self.touch(lpn) {
            return None;
        }
        let evicted = if self.is_full() { self.pop_least_recent() } else { None };
        let slot = if let Some(slot) = self.free_slots.pop() {
            self.nodes[slot] = Node { lpn, prev: NIL, next: NIL };
            slot
        } else {
            self.nodes.push(Node { lpn, prev: NIL, next: NIL });
            self.nodes.len() - 1
        };
        self.index.insert(lpn, slot);
        self.attach_front(slot);
        evicted
    }

    pub fn pop_least_recent(&mut self) -> Option<Lpn> {
        let slot = self.tail;
        if slot == NIL {
            return None;
        }
        let lpn = self.nodes[slot].lpn;
        self.remove(lpn);
        Some(lpn)
    }

    pub fn remove(&mut self, lpn: Lpn) -> bool {
        let Some(slot) = self.index.remove(&lpn) else { return false };
        self.detach(slot);
        self.free_slots.push(slot);
        true
    }

    pub fn iter(&self) -> Iter<'_> {
        Iter { list: self, slot: self.head }
    }
}

#[derive(Debug, Clone)]
pub struct Iter<'a> {
    list: &'a LruList,
    slot: usize,
}

impl<'a> Iterator for Iter<'a> {
    type Item = Lpn;

    fn next(&mut self) -> Option<Lpn> {
        if self.slot == NIL {
            return None;
        }
        let node = &self.list.nodes[self.slot];
        self.slot = node.next;
        Some(node.lpn)
    }
}

// Seeded violations for the nondeterminism rule.

use std::collections::HashMap;

struct S {
    map: HashMap<u32, u32>,
}

impl S {
    fn tick(&self) -> u64 {
        let t = std::time::Instant::now(); //~ ERROR nondeterminism
        consume(t);
        let mut acc = 0u64;
        for (_k, v) in self.map.iter() { //~ ERROR nondeterminism
            acc += u64::from(*v);
        }
        acc
    }

    fn entropy(&self) -> u64 {
        let r = rand::thread_rng(); //~ ERROR nondeterminism
        consume(r);
        7
    }

    fn lookup(&self, k: u32) -> Option<u32> {
        // Keyed lookups are deterministic and allowed.
        self.map.get(&k).copied()
    }
}

fn consume<T>(_t: T) {}

// A path-qualified field type is still a hash container.
struct Qualified {
    by_path: std::collections::HashMap<u32, u32>,
}

impl Qualified {
    fn total(&self) -> u32 {
        self.by_path.values().sum() //~ ERROR nondeterminism
    }
}

// So is a field typed through an alias.
type Index = HashMap<u32, u32>;

struct Aliased {
    index: Index,
}

impl Aliased {
    fn first(&self) -> Option<u32> {
        self.index.keys().next().copied() //~ ERROR nondeterminism
    }

    // rustfmt splits long chains: the receiver and the method can sit on
    // different lines.
    fn folded(&self) -> u32 {
        self.index
            .values() //~ ERROR nondeterminism
            .fold(0, |acc, v| acc ^ v)
    }
}

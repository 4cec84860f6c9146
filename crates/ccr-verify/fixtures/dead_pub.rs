// dead-pub: public functions that no entry point reaches are findings.
// The fixture test roots the walk at a one-line example that calls
// `reached_from_root`, and declares `declared_api`.

pub fn never_called() -> u32 { //~ ERROR dead-pub
    1
}

pub fn only_tests_call_me() -> u32 { //~ ERROR dead-pub
    2
}

pub fn dead_caller() -> u32 { //~ ERROR dead-pub
    only_a_dead_fn_calls_me()
}

pub fn only_a_dead_fn_calls_me() -> u32 { //~ ERROR dead-pub
    3
}

pub fn reached_from_root() -> Option<u32> {
    Some(4).map(named_as_a_path)
}

pub fn named_as_a_path(x: u32) -> u32 {
    x
}

pub struct Gauge;

impl std::fmt::Display for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", Gauge::reached_from_a_trait_impl())
    }
}

impl Gauge {
    pub fn reached_from_a_trait_impl() -> u32 {
        5
    }

    pub(crate) fn crate_visible_is_out_of_scope() -> u32 {
        6
    }
}

pub fn declared_api() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_only_tests_call_me() {
        assert_eq!(super::only_tests_call_me(), 2);
    }
}

//! Small protocols shared by the crate's unit tests.

use crate::builder::ProtocolBuilder;
use crate::output::Output;
use crate::protocol::Protocol;

/// Example 4.2 of the paper: 6 states, width 2, n leaders, decides (i ≥ n).
pub(crate) fn example_4_2(n: u64) -> Protocol {
    let mut b = ProtocolBuilder::new(format!("example-4.2(n={n})"));
    let i = b.state("i", Output::One);
    let i_bar = b.state("i_bar", Output::Zero);
    let p = b.state("p", Output::One);
    let p_bar = b.state("p_bar", Output::Zero);
    let q = b.state("q", Output::One);
    let q_bar = b.state("q_bar", Output::Zero);
    b.initial(i);
    b.leaders(i_bar, n);
    b.pairwise(i, i_bar, p, q);
    b.pairwise(p_bar, i, p, i);
    b.pairwise(p, i_bar, p_bar, i_bar);
    b.pairwise(q_bar, i, q, i);
    b.pairwise(q, i_bar, q_bar, i_bar);
    b.pairwise(p, q_bar, p, q);
    b.pairwise(q, p_bar, q, p);
    b.build().unwrap()
}

/// Gets stuck in a mixed-output configuration: `a` and the leader `b` swap
/// forever and never reach consensus.
pub(crate) fn broken() -> Protocol {
    let mut b = ProtocolBuilder::new("broken");
    let a = b.state("a", Output::One);
    let bb = b.state("b", Output::Zero);
    b.initial(a);
    b.leaders(bb, 1);
    b.pairwise(a, bb, bb, a);
    b.build().unwrap()
}

/// Non-conservative and unbounded: every `a` can double.
pub(crate) fn grower() -> Protocol {
    let mut b = ProtocolBuilder::new("grower");
    let a = b.state("a", Output::One);
    b.initial(a);
    b.transition(&[(a, 1)], &[(a, 2)]);
    b.build().unwrap()
}

/// Non-conservative: agents in state `a` output 1 but annihilate pairwise.
pub(crate) fn annihilate() -> Protocol {
    let mut b = ProtocolBuilder::new("annihilate");
    let a = b.state("a", Output::One);
    b.initial(a);
    b.transition(&[(a, 2)], &[]);
    b.build().unwrap()
}

/// Two `a` agents can turn one of them into the `★`-output state `s`.
pub(crate) fn starry() -> Protocol {
    let mut b = ProtocolBuilder::new("starry");
    let a = b.state("a", Output::One);
    let s = b.state("s", Output::Star);
    b.initial(a);
    b.pairwise(a, a, a, s);
    b.build().unwrap()
}

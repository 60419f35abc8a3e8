//! The System Abstraction Graph (SAG): a rooted tree of System Abstraction
//! Units (SAUs), each abstracting part of the HPC system into its four
//! parameter components (§3.1).

use crate::components::{CommComponent, IoComponent, MemoryComponent, ProcessingComponent};
use serde::{Deserialize, Serialize};

/// One System Abstraction Unit. Components are optional because interior
/// units (e.g. "the cube") may only export communication parameters while
/// leaves (nodes) export processing/memory parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sau {
    pub name: String,
    pub processing: Option<ProcessingComponent>,
    pub memory: Option<MemoryComponent>,
    pub comm: Option<CommComponent>,
    pub io: Option<IoComponent>,
    pub children: Vec<Sau>,
}

impl Sau {
    /// A unit with no components (pure structural node).
    pub fn structural(name: impl Into<String>) -> Sau {
        Sau {
            name: name.into(),
            processing: None,
            memory: None,
            comm: None,
            io: None,
            children: Vec::new(),
        }
    }

    /// Render the tree as an indented outline (used by reports/examples to
    /// show the system characterization).
    pub fn outline(&self) -> String {
        let mut out = String::new();
        self.outline_into(0, &mut out);
        out
    }

    fn outline_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        let mut tags = Vec::new();
        if self.processing.is_some() {
            tags.push("P");
        }
        if self.memory.is_some() {
            tags.push("M");
        }
        if self.comm.is_some() {
            tags.push("C/S");
        }
        if self.io.is_some() {
            tags.push("I/O");
        }
        if !tags.is_empty() {
            out.push_str(&format!("  [{}]", tags.join(", ")));
        }
        out.push('\n');
        for c in &self.children {
            c.outline_into(depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ipsc860;

    #[test]
    fn outline_mentions_components() {
        let m = ipsc860(2);
        let o = m.sag.outline();
        assert!(o.contains("iPSC/860"));
        assert!(o.contains("C/S"));
        assert!(o.contains("I/O"));
    }
}

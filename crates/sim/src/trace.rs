//! Invocation traces: what the application observed, per process —
//! the raw material from which distributed histories are rebuilt.

use crate::process::{Pid, Protocol};

/// One application-level invocation and its (wait-free, immediate)
/// response.
pub struct InvocationRecord<P: Protocol> {
    /// Simulation time of the invocation.
    pub time: u64,
    /// Invoking process.
    pub pid: Pid,
    /// The operation invoked.
    pub input: P::Input,
    /// The value returned.
    pub output: P::Output,
}

impl<P: Protocol> Clone for InvocationRecord<P> {
    fn clone(&self) -> Self {
        InvocationRecord {
            time: self.time,
            pid: self.pid,
            input: self.input.clone(),
            output: self.output.clone(),
        }
    }
}

impl<P: Protocol> std::fmt::Debug for InvocationRecord<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "t={} p{}: {:?} -> {:?}",
            self.time, self.pid, self.input, self.output
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Ctx;

    #[derive(Debug)]
    struct Echo;
    impl Protocol for Echo {
        type Msg = ();
        type Input = u32;
        type Output = u32;
        fn on_invoke(&mut self, input: u32, _ctx: &mut Ctx<'_, ()>) -> u32 {
            input
        }
        fn on_message(&mut self, _from: Pid, _msg: (), _ctx: &mut Ctx<'_, ()>) {}
    }

    #[test]
    fn debug_format() {
        let r: InvocationRecord<Echo> = InvocationRecord {
            time: 3,
            pid: 0,
            input: 1,
            output: 1,
        };
        assert_eq!(format!("{r:?}"), "t=3 p0: 1 -> 1");
    }
}

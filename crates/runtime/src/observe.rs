//! Translating transition labels into [`TraceEvent`]s.
//!
//! One fired [`Label`] expands into up to five events sharing a step
//! index: the `Step` itself, the wire message it consumed (`Recv`, plus
//! `Retransmit` when that message was a nack), the rendezvous it
//! completed, and the wire messages it emitted (`Send`, each with the
//! post-step link occupancy when the semantics can report one). Both the
//! simulator and the model checker's counterexample export go through
//! this function so a replayed counterexample is byte-identical to a
//! live trace of the same schedule.

use crate::system::{Label, SentMsg};
use ccr_core::ids::MsgType;
use ccr_trace::{TraceEvent, TraceSink};

/// Emits the events describing one fired `label` to `sink`.
///
/// `seq` is the 0-based step index. `msg_name` resolves message types to
/// spec names (see [`crate::TransitionSystem::msg_name`]); `occupancy`
/// reports the post-step occupancy of the link a [`SentMsg`] landed on,
/// or `None` when unknown.
pub fn emit_label_events(
    sink: &mut dyn TraceSink,
    seq: u64,
    label: &Label,
    msg_name: &dyn Fn(MsgType) -> String,
    occupancy: &dyn Fn(&SentMsg) -> Option<u32>,
) {
    sink.emit(&TraceEvent::Step {
        seq,
        actor: label.actor.to_string(),
        kind: format!("{:?}", label.kind),
        rule: label.rule.to_string(),
        tag: label.tag.as_deref().map(str::to_owned),
    });
    if let Some(r) = &label.recv {
        sink.emit(&TraceEvent::Recv {
            seq,
            from: r.from.to_string(),
            to: r.to.to_string(),
            wire: r.wire_kind().to_string(),
            msg: r.msg.map(msg_name),
        });
        if r.is_nack {
            sink.emit(&TraceEvent::Retransmit {
                seq,
                actor: label.actor.to_string(),
                rule: label.rule.to_string(),
            });
        }
    }
    if let Some((active, msg)) = label.completes {
        sink.emit(&TraceEvent::Rendezvous { seq, actor: active.to_string(), msg: msg_name(msg) });
    }
    for m in label.emissions() {
        sink.emit(&TraceEvent::Send {
            seq,
            from: m.from.to_string(),
            to: m.to.to_string(),
            wire: m.wire_kind().to_string(),
            msg: m.msg.map(msg_name),
            occupancy: occupancy(m),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{Label, LabelKind, SentMsg};
    use ccr_core::ids::{ProcessId, RemoteId};
    use ccr_trace::RingSink;

    #[test]
    fn one_label_expands_into_its_event_set() {
        let h = ProcessId::Home;
        let r0 = ProcessId::Remote(RemoteId(0));
        let label = Label::new(h, LabelKind::Complete, "C1")
            .completing(r0, MsgType(1))
            .receiving(SentMsg::nack(r0, h))
            .sending(SentMsg::ack(h, r0));
        let mut sink = RingSink::new(16);
        emit_label_events(&mut sink, 7, &label, &|m| format!("msg{}", m.0), &|_| Some(2));
        let events = sink.into_events();
        assert_eq!(events.len(), 5, "step, recv, retransmit, rendezvous, send");
        assert!(matches!(&events[0], TraceEvent::Step { seq: 7, rule, .. } if rule == "C1"));
        assert!(matches!(&events[1], TraceEvent::Recv { wire, .. } if wire == "Nack"));
        assert!(matches!(&events[2], TraceEvent::Retransmit { .. }));
        assert!(matches!(&events[3], TraceEvent::Rendezvous { msg, .. } if msg == "msg1"));
        assert!(
            matches!(&events[4], TraceEvent::Send { wire, occupancy: Some(2), .. } if wire == "Ack")
        );
    }
}

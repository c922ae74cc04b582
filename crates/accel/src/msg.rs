//! NoC message payloads.

use taskstream_model::{PipeId, TaskId};

/// Identifies one write stream: `(task, output port)`.
pub(crate) type StreamKey = (TaskId, usize);

/// One word-sized NoC payload. Each message occupies one flit.
///
/// Read *requests* travel on a dedicated narrow control network modelled
/// as a fixed latency (see `MemCtrl::submit_read`); only data-carrying
/// traffic (read responses, write words, pipe words) and small acks ride
/// the mesh.
#[derive(Debug, Clone)]
pub(crate) enum Msg {
    /// One word of DRAM read data for read job `job` (multicast to every
    /// sharing tile).
    DramData {
        /// Read job id.
        job: u64,
        /// Words carried by this flit (links are several words wide;
        /// controllers coalesce up to a burst per flit).
        words: u16,
        /// True on the job's final word.
        last: bool,
    },
    /// One word of a DRAM write stream, tile → memory controller. The
    /// word's functional effect (address, value, write mode) was
    /// applied at dispatch; the flit carries what the controller meters.
    DramWrite {
        /// Which write stream this word belongs to.
        stream: StreamKey,
        /// Source tile mesh node (for the ack).
        reply_to: usize,
        /// True on the stream's final word.
        last: bool,
        /// Random-access pattern (pays the DRAM gather cost).
        gather: bool,
    },
    /// Write-stream completion, memory controller → tile.
    WriteAck {
        /// The completed write stream.
        stream: StreamKey,
    },
    /// One word of a direct (co-scheduled) inter-task pipe.
    PipeWord {
        /// The pipe.
        pipe: PipeId,
        /// True on the final word the producer will send.
        last: bool,
    },
}

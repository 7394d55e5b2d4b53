//! What one frame does on each half of a deployment, with no socket in
//! it. The [`EdgeCore`] maps a decoded frame to its outcome; the device
//! core maps a sample to the `State` frame it ships (or, under a local
//! plan, to its prediction) and a reply to a prediction. The edge's serve
//! loop, the device client's threads and the in-process oracle
//! ([`ExecutionPlan::run_in_process`]) drive these cores: they move
//! bytes, pace the link and stamp time, and decide nothing a frame
//! computes.
//!
//! One RNG rule holds on both halves: **a stream restarts when a plan is
//! deployed** — a `SwapPlan` frame on the edge, a deploy on the device —
//! from the run seed salted per half. Runs of one deployment continue
//! its streams; nothing else restarts them. Only `BuildRandom` draws
//! from them.

use crate::plan::ExecutionPlan;
use crate::proto::{decode_frame, encode_frame, frame_name, Frame, WireState};
use crate::{protocol, EngineError};
use gcode_graph::datasets::Sample;
use gcode_nn::seq::{classify, forward_features_slotted, GraphInput, WeightBank};
use gcode_tensor::Matrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Salt of the device's RNG stream: it starts at `seed ^ DEVICE_STREAM`.
const DEVICE_STREAM: u64 = 0xDE71CE;
/// Salt of the edge's RNG stream: it starts at `seed ^ EDGE_STREAM`.
const EDGE_STREAM: u64 = 0xED6E;

/// One half's state: its copy of the shared bank, its salted stream seed,
/// and the deployed plan with the stream it draws from.
struct Half {
    bank: WeightBank,
    stream_seed: u64,
    deployed: Option<(ExecutionPlan, ChaCha8Rng)>,
}

impl Half {
    /// Adopts `plan` and restarts the stream: the one place either half's
    /// RNG starts.
    fn deploy(&mut self, plan: ExecutionPlan) {
        self.deployed = Some((plan, ChaCha8Rng::seed_from_u64(self.stream_seed)));
    }
}

/// What the edge does with one frame ([`EdgeCore::serve`]).
#[derive(Debug)]
pub enum EdgeStep {
    /// A `State` frame's reply: its logits under the deployed plan, with
    /// the frame's id and label.
    Reply(WireState),
    /// A `SwapPlan` frame's plan is deployed; nothing is replied.
    Deployed,
    /// A `Shutdown` frame: the serve loop ends.
    Shutdown,
}

/// The edge half of a deployment: it owns the edge's bank, the active
/// plan and its RNG stream, and maps each decoded frame of the device↔edge
/// link to its outcome. It starts with no plan; a `SwapPlan` deploys one
/// in place, so a swapped-in plan computes exactly what a fresh edge would.
pub struct EdgeCore(Half);

impl EdgeCore {
    /// An edge over `bank` for the run seed `seed`, with no plan deployed.
    pub fn new(bank: WeightBank, seed: u64) -> Self {
        Self(Half { bank, stream_seed: seed ^ EDGE_STREAM, deployed: None })
    }

    /// Maps one decoded frame to its outcome: a `State` frame to its
    /// logits, a `SwapPlan` to a deployment, `Shutdown` to the end of the
    /// loop.
    ///
    /// # Errors
    ///
    /// Refuses a `State` frame before any plan is deployed, and every
    /// session frame by its kind's name: those belong to the `gcode-serve`
    /// daemon, and refusing them keeps a client that dialed the wrong port
    /// from hanging.
    pub fn serve(&mut self, frame: Frame) -> Result<EdgeStep, EngineError> {
        match frame {
            Frame::Shutdown => Ok(EdgeStep::Shutdown),
            Frame::SwapPlan(plan) => {
                self.0.deploy(*plan);
                Ok(EdgeStep::Deployed)
            }
            Frame::State(state) => {
                let Half { bank, deployed, .. } = &mut self.0;
                let (plan, rng) = deployed.as_mut().ok_or_else(no_plan)?;
                let (h, _) = forward_features_slotted(
                    &plan.edge_specs,
                    &plan.edge_slots,
                    GraphInput { features: &state.features, graph: state.graph.as_ref() },
                    bank,
                    rng,
                );
                let features = classify(&h, bank);
                Ok(EdgeStep::Reply(WireState { features, graph: None, ..state }))
            }
            other => Err(protocol(format!(
                "edge serve loop cannot handle a {} frame",
                frame_name(&other)
            ))),
        }
    }

    /// Ends a session (its connection closed): the next one starts with
    /// no plan and must deploy before its first `State` frame.
    pub fn end_session(&mut self) {
        self.0.deployed = None;
    }
}

/// What the device does with one sample ([`DeviceCore::frame`]).
pub(crate) enum DeviceStep {
    /// An offloaded plan: the device prefix's output, to ship.
    Ship(WireState),
    /// A local plan: the frame's prediction; nothing is shipped.
    Predicted(usize),
}

/// The device half of a deployment: it owns the device's bank, the
/// deployed plan and its RNG stream.
pub(crate) struct DeviceCore(Half);

impl DeviceCore {
    /// A device over `bank` for the run seed `seed`, with no plan deployed.
    pub(crate) fn new(bank: WeightBank, seed: u64) -> Self {
        Self(Half { bank, stream_seed: seed ^ DEVICE_STREAM, deployed: None })
    }

    /// Deploys `plan` on the device and returns the `SwapPlan` frame the
    /// edge must receive, or `None` for a local plan, which the edge never
    /// serves.
    pub(crate) fn deploy(&mut self, plan: ExecutionPlan) -> Option<Frame> {
        let swap = plan.offloaded.then(|| Frame::SwapPlan(Box::new(plan.clone())));
        self.0.deploy(plan);
        swap
    }

    /// Whether the deployed plan ships its frames to the edge.
    ///
    /// # Errors
    ///
    /// Refuses when no plan is deployed.
    pub(crate) fn offloaded(&self) -> Result<bool, EngineError> {
        self.0.deployed.as_ref().map(|(plan, _)| plan.offloaded).ok_or_else(no_plan)
    }

    /// Runs the device prefix on `sample`: frame `frame_id`'s `State` to
    /// ship under an offloaded plan, its prediction under a local one.
    ///
    /// # Errors
    ///
    /// Refuses when no plan is deployed.
    pub(crate) fn frame(
        &mut self,
        frame_id: u64,
        sample: &Sample,
    ) -> Result<DeviceStep, EngineError> {
        let Half { bank, deployed, .. } = &mut self.0;
        let (plan, rng) = deployed.as_mut().ok_or_else(no_plan)?;
        let (features, graph) = forward_features_slotted(
            &plan.device_specs,
            &plan.device_slots,
            GraphInput { features: &sample.features, graph: sample.graph.as_ref() },
            bank,
            rng,
        );
        Ok(if plan.offloaded {
            DeviceStep::Ship(WireState { frame_id, features, graph, label: sample.label as u32 })
        } else {
            DeviceStep::Predicted(prediction(&classify(&features, bank))?)
        })
    }

    /// Turns the edge's reply into `(frame_id, prediction)`.
    ///
    /// # Errors
    ///
    /// Refuses a reply that is not a `State` frame, and logits with no
    /// row or no column.
    pub(crate) fn reply(frame: Frame) -> Result<(u64, usize), EngineError> {
        let Frame::State(state) = frame else {
            return Err(protocol("edge sent a control frame where a result was expected"));
        };
        Ok((state.frame_id, prediction(&state.features)?))
    }
}

/// The one refusal of a frame before any deploy, on either half.
fn no_plan() -> EngineError {
    protocol("no plan deployed: deploy one before the first run")
}

/// The class a frame's logits pick: the argmax of their first row.
fn prediction(logits: &Matrix) -> Result<usize, EngineError> {
    let (rows, cols) = logits.shape();
    if rows == 0 || cols == 0 {
        return Err(protocol(format!("{rows}×{cols} logits are empty: no class to predict")));
    }
    Ok(logits.argmax_row(0))
}

/// One frame across the wire codec, in memory.
fn over_the_wire(frame: Frame) -> Result<Frame, EngineError> {
    decode_frame(&encode_frame(&frame))
}

impl ExecutionPlan {
    /// Runs this plan over `samples` in this process: a device core and an
    /// edge core over copies of `bank`, joined through the wire codec in
    /// memory (the `SwapPlan`, every `State` frame and every reply is
    /// encoded and decoded as on a socket). It is the in-process oracle:
    /// what a fresh pair deployed with this plan predicts on one run, with
    /// no thread and no socket.
    ///
    /// # Errors
    ///
    /// Propagates any codec or protocol error of either core.
    pub fn run_in_process(
        &self,
        bank: WeightBank,
        seed: u64,
        samples: &[Sample],
    ) -> Result<Vec<usize>, EngineError> {
        let mut device = DeviceCore::new(bank.clone(), seed);
        let mut edge = EdgeCore::new(bank, seed);
        if let Some(swap) = device.deploy(self.clone()) {
            edge.serve(over_the_wire(swap)?)?;
        }
        let mut predict = |frame_id, sample| match device.frame(frame_id, sample)? {
            DeviceStep::Predicted(prediction) => Ok(prediction),
            DeviceStep::Ship(state) => match edge.serve(over_the_wire(Frame::State(state))?)? {
                EdgeStep::Reply(reply) => {
                    Ok(DeviceCore::reply(over_the_wire(Frame::State(reply))?)?.1)
                }
                _ => unreachable!("the edge answers every State frame"),
            },
        };
        (0..).zip(samples).map(|(frame_id, sample)| predict(frame_id, sample)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{SessionOutcome, SessionProgress, SessionSpec, SessionState, SessionTask};
    use crate::PROTOCOL_VERSION;
    use gcode_core::arch::Architecture;
    use gcode_core::eval::{Objective, SearchReport};
    use gcode_core::op::{Op, SampleFn};
    use gcode_core::search::{SearchConfig, SearchResult};
    use gcode_graph::datasets::PointCloudDataset;
    use gcode_nn::agg::AggMode;
    use gcode_nn::pool::PoolMode;

    /// A plan whose edge half samples a random neighborhood: every `State`
    /// frame draws from the edge's stream.
    fn edge_random_swap() -> Frame {
        Frame::SwapPlan(Box::new(ExecutionPlan::from_architecture(&Architecture::new(vec![
            Op::Combine { dim: 8 },
            Op::Communicate,
            Op::Sample(SampleFn::Random { k: 4 }),
            Op::Aggregate(AggMode::Mean),
            Op::GlobalPool(PoolMode::Max),
        ]))))
    }

    /// The raw input of one point cloud as a `State` frame.
    fn state() -> Frame {
        let cloud = PointCloudDataset::generate(1, 16, 4, 3);
        let sample = &cloud.samples()[0];
        Frame::State(WireState {
            frame_id: 0,
            features: sample.features.clone(),
            graph: None,
            label: sample.label as u32,
        })
    }

    /// Every frame kind that belongs to a `gcode-serve` session.
    fn session_frames() -> Vec<Frame> {
        let spec = SessionSpec {
            config: SearchConfig::default(),
            objective: Objective::new(0.25, 1.0, 5.0),
            task: SessionTask::ModelNet40,
            measure_zoo: false,
            scenario: None,
        };
        let outcome = SessionOutcome {
            session: 1,
            report: SearchReport {
                backend: "serve".to_string(),
                workers: 1,
                cache: Default::default(),
                unique_architectures: 0,
                zoo_len: 0,
                best_score: None,
                constraint_misses: 0,
                trials: 0,
                measured: None,
                fleet: None,
                scenarios: None,
            },
            result: SearchResult {
                zoo: vec![],
                history: vec![],
                constraint_misses: 0,
                validity_draws: 0,
            },
            winner_predictions: vec![],
        };
        let progress = SessionProgress {
            session: 1,
            state: SessionState::Searching,
            evaluated: 0,
            total: 1,
            best_score: None,
        };
        vec![
            Frame::Hello(PROTOCOL_VERSION),
            Frame::Error("no".to_string()),
            Frame::OpenSession(Box::new(spec)),
            Frame::SessionOpened(1),
            Frame::Busy { running: 1, queued: 0 },
            Frame::Submit(1),
            Frame::Poll(1),
            Frame::Progress(progress),
            Frame::Result(Box::new(outcome)),
            Frame::CloseSession(1),
        ]
    }

    /// The outcome of a fresh core's last frame, as the table spells it.
    fn last_outcome(script: Vec<Frame>) -> Result<&'static str, String> {
        let mut core = EdgeCore::new(WeightBank::new(4, 3), 5);
        let (last, setup) = script.split_last().expect("a script has a frame");
        for frame in setup {
            core.serve(frame.clone()).expect("the setup frames are served");
        }
        match core.serve(last.clone()) {
            Ok(EdgeStep::Reply(reply)) => {
                assert_eq!(reply.features.shape(), (1, 4), "one row of logits per frame");
                Ok("reply")
            }
            Ok(EdgeStep::Deployed) => Ok("deployed"),
            Ok(EdgeStep::Shutdown) => Ok("shutdown"),
            Err(e) => Err(e.to_string()),
        }
    }

    #[test]
    fn the_edge_core_answers_each_frame_kind_as_its_contract_says() {
        let refused = |what: &str| Err(format!("engine protocol error: {what}"));
        let mut table: Vec<(&str, Vec<Frame>, Result<&str, String>)> = vec![
            (
                "a state before any deploy",
                vec![state()],
                refused("no plan deployed: deploy one before the first run"),
            ),
            ("a deploy", vec![edge_random_swap()], Ok("deployed")),
            ("a state after a deploy", vec![edge_random_swap(), state()], Ok("reply")),
            ("a shutdown with no plan", vec![Frame::Shutdown], Ok("shutdown")),
            (
                "a shutdown after a deploy",
                vec![edge_random_swap(), Frame::Shutdown],
                Ok("shutdown"),
            ),
        ];
        let frames = session_frames();
        let names: Vec<String> = frames.iter().map(|f| frame_name(f).to_string()).collect();
        for (frame, name) in frames.into_iter().zip(&names) {
            let expected = refused(&format!("edge serve loop cannot handle a {name} frame"));
            table.push((name, vec![edge_random_swap(), frame], expected));
        }
        for (case, script, expected) in table {
            assert_eq!(last_outcome(script), expected, "{case}");
        }
    }

    #[test]
    fn a_deploy_restarts_the_edge_stream_and_a_session_end_drops_the_plan() {
        let mut core = EdgeCore::new(WeightBank::new(4, 3), 5);
        let logits = |core: &mut EdgeCore| match core.serve(state()) {
            Ok(EdgeStep::Reply(reply)) => reply.features,
            other => panic!("a state frame gets a reply, not {other:?}"),
        };
        core.serve(edge_random_swap()).expect("deploy");
        let first = logits(&mut core);
        let second = logits(&mut core);
        core.serve(edge_random_swap()).expect("the same plan again");
        let third = logits(&mut core);
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_ne!(bits(&second), bits(&first), "the stream runs on within a deployment");
        assert_eq!(bits(&third), bits(&first), "a deploy restarts the stream");
        core.end_session();
        assert!(core.serve(state()).is_err(), "a new session starts with no plan");
    }
}

//! Neural-network substrate with manual backprop and quantization-aware
//! training, wired for APSQ.
//!
//! The paper's accuracy experiments run W8A8 quantization-aware training
//! (LSQ quantizers, full-precision-teacher distillation) with the APSQ
//! grouped PSUM quantizer inside every matmul's accumulation path. This
//! crate provides all of it, sized for offline reproduction:
//!
//! - [`QuantLinear`] — a linear layer whose K-tiled accumulation runs the
//!   float twin of Algorithm 1 ([`PsumMode::Apsq`]), exactly as the RAE
//!   would execute it at inference;
//! - [`MultiHeadAttention`], [`TransformerBlock`], [`EncoderClassifier`],
//!   [`TokenTagger`], [`DecoderLm`] — the task models (manual backprop);
//! - [`Int8Linear`], [`Int8MultiHeadAttention`] — the **true integer
//!   inference datapath**: i8×i8→i32 GEMMs with grouped APSQ folded into
//!   the K loop, produced by a PTQ conversion pass and bit-identical to
//!   the fake-quant path under power-of-two scales;
//! - one model tree: the block, decoder and classifier are generic over
//!   their sub-layer types, so [`Int8TransformerBlock`],
//!   [`Int8DecoderLm`] and [`Int8EncoderClassifier`] are the same models
//!   with the integer sub-layers plugged in. Inference and paged decode
//!   are written once against the [`Project`] and [`Attention`] traits,
//!   and [`PagedDecoder`] drives either precision behind one object;
//! - [`BlockAllocator`], [`BlockPool`], [`PagedKvState`] — paged KV
//!   storage: fixed-size token blocks carved from one byte budget with
//!   refcounted copy-on-write sharing, behind the models'
//!   `decode_batch_paged_with` — the one incremental decode path,
//!   bit-identical to the full-sequence `forward_inference_with` oracle;
//! - [`GlueTask`], [`SegTask`], [`LmFamily`] — synthetic stand-ins for
//!   GLUE / ADE20K / zero-shot-reasoning benchmarks (see DESIGN.md for the
//!   substitution argument);
//! - [`train_glue`] / [`train_seg`] / [`train_lm`] and the matching
//!   evaluators — the QAT drivers behind Tables I and III and Fig 5.
//!
//! # Example
//!
//! ```no_run
//! use apsq_nn::{
//!     evaluate_glue, train_glue, GlueTask, ModelConfig, PsumMode, TrainConfig,
//! };
//!
//! let cfg = ModelConfig::tiny(PsumMode::Exact);
//! let mut model = train_glue(GlueTask::Mrpc, &cfg, &TrainConfig::quick(), None);
//! let acc = evaluate_glue(&mut model, GlueTask::Mrpc, 200, 0);
//! println!("MRPC accuracy: {acc:.1}%");
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod attention;
mod block;
mod data;
mod decode;
mod embedding;
mod int8;
mod linear;
mod loss;
mod metrics;
mod models;
mod norm;
mod paged;
mod param;
mod qat;

pub use attention::MultiHeadAttention;
pub use block::TransformerBlock;
pub use data::{GlueTask, Label, LmFamily, MetricKind, SegTask, SeqExample};
pub use decode::{Attention, PagedDecoder, Project};
pub use embedding::Embedding;
pub use int8::{
    Int8DecoderLm, Int8EncoderClassifier, Int8Linear, Int8MultiHeadAttention, Int8TransformerBlock,
};
pub use linear::{Linear, PsumMode, QuantLinear};
pub use loss::{cross_entropy, distillation_loss, mse_loss};
pub use metrics::{accuracy, matthews_corr, mean_iou, pearson, spearman_rho};
pub use models::{DecoderLm, EncoderClassifier, ModelConfig, TokenTagger};
pub use norm::LayerNorm;
pub use paged::{BlockAllocator, BlockId, BlockPool, PagedKvState, PoolContention, PoolGuard};
pub use param::{HasParams, Param};
pub use qat::{
    evaluate_glue, evaluate_lm, evaluate_seg, train_glue, train_lm, train_seg, with_psum_mode,
    TrainConfig,
};

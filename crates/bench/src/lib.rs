//! Criterion benches of the simulator (`benches/`). The paper's tables,
//! figures and studies are regenerated by `cmpsim-cli tables`,
//! `cmpsim-cli figures` and `cmpsim-cli study`.

"""Flow-by-flow ingest: the reference the column path is checked against.

Per-flow bodies of
:meth:`~repro.flows.streaming.StreamingFeatureExtractor.update` and
:meth:`~repro.detection.incremental.OnlineDetector.ingest`: one flow at
a time, the window tumble tested per flow, one reservoir draw per
interstitial sample.  The package ingests column chunks only; these
subclasses are the oracle the chunk path must match bit for bit.
"""

from repro.detection.incremental import OnlineDetector
from repro.flows.streaming import StreamingFeatureExtractor, StreamingHostState


class OracleExtractor(StreamingFeatureExtractor):
    """A streaming extractor that accounts flows one record at a time."""

    def update(self, flow):
        state = self._hosts.setdefault(flow.src, StreamingHostState())
        state.flow_count += 1
        if not flow.failed:
            state.successful += 1
        state.uploaded_bytes += flow.src_bytes
        if state.first_activity is None or flow.start < state.first_activity:
            state.first_activity = flow.start
        seen = state.first_contact.get(flow.dst)
        if seen is None or flow.start < seen:
            state.first_contact[flow.dst] = flow.start

        last = state.last_start.get(flow.dst)
        if last is not None:
            self._add_sample(state, abs(flow.start - last))
        state.last_start[flow.dst] = flow.start

    def update_many(self, flows, errors="strict"):
        count = 0
        for flow in flows:
            self.update(flow)
            count += 1
        return count

    def _add_sample(self, state, gap):
        state.samples_seen += 1
        if len(state.reservoir) < self.reservoir_size:
            state.reservoir.append(gap)
            state.reservoir_version += 1
            return
        # Vitter's algorithm R: replace with probability k/n.
        index = self._rng.randrange(state.samples_seen)
        if index < self.reservoir_size:
            state.reservoir[index] = gap
            state.reservoir_version += 1


class OracleDetector(OnlineDetector):
    """An online detector that ingests and tumbles one flow at a time."""

    def _fresh_extractor(self):
        return OracleExtractor(
            reservoir_size=self.reservoir_size,
            seed=self._window_index,
        )

    def ingest(self, flow):
        if self._window_start is None:
            self._window_start = self._aligned_start(flow.start)
        elif flow.start >= self._window_start + self.window:
            self._finalize(self._window_start + self.window)
            # Advance by whole windows so a long gap skips empty ones.
            while flow.start >= self._window_start + self.window:
                self._window_start += self.window
        if self._spool_writer is not None:
            try:
                self._spool_writer.add(flow)
            except OSError as exc:
                if not self.config.degrade:
                    raise
                self._disable_spool(exc)
        self._extractor.update(flow)

    def ingest_many(self, flows):
        for flow in flows:
            self.ingest(flow)

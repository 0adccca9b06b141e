package controller

import (
	"context"

	"pathdump/internal/alarms"
	"pathdump/internal/types"
)

// RaiseAlarm implements agent.AlarmSink: it routes the alarm through the
// pipeline (bounded history, dedup/suppression, rate limiting, live
// subscribers) and dispatches registered handlers for alarms admitted as
// new entries (the event-driven debugging path of Figure 3). It runs
// under the controller's alarm context (SetAlarmContext).
func (c *Controller) RaiseAlarm(a types.Alarm) {
	c.RaiseAlarmContext(c.alarmContext(), a)
}

// RaiseAlarmContext is RaiseAlarm under a caller context — the HTTP
// /alarm handler passes its request context, so an agent that hung up
// does not have its alarm dispatched to nobody, and a shutting-down
// controller (alarm context cancelled) stops dispatching between
// handlers instead of running the full chain. A repeat folded into an
// existing history entry by the suppression window (or an alarm refused
// by the rate limit) updates the pipeline's counters but does not
// re-trigger handlers or subscribers.
func (c *Controller) RaiseAlarmContext(ctx context.Context, a types.Alarm) {
	if ctx.Err() != nil {
		return
	}
	c.mu.Lock()
	pipe := c.pipe
	c.mu.Unlock()
	if _, admitted := pipe.Publish(a); !admitted {
		return
	}
	// Snapshot the handler chain only for admitted alarms: the suppressed
	// storm path must stay allocation-free.
	c.mu.Lock()
	handlers := append(make([]func(types.Alarm), 0, len(c.handlers)), c.handlers...)
	c.mu.Unlock()
	for _, fn := range handlers {
		if ctx.Err() != nil {
			return
		}
		fn(a)
	}
}

// SetAlarmPolicy replaces the alarm pipeline's configuration — history
// depth, suppression window, rate limit. Call it at wiring time, before
// alarms flow: the previous pipeline's history and subscriptions are
// discarded with it.
func (c *Controller) SetAlarmPolicy(cfg alarms.Config) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pipe = alarms.New(cfg)
}

// AlarmPipeline returns the live pipeline (history queries, stats,
// subscriptions) — the surface the controller HTTP server exposes as
// GET /alarms and /alarms/stream.
func (c *Controller) AlarmPipeline() *alarms.Pipeline {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pipe
}

// SubscribeAlarms opens a live alarm feed: every alarm admitted from now
// on (after dedup and rate limiting) is delivered in admission order.
// buf bounds the feed's buffer (<= 0 selects the default); a subscriber
// that falls behind loses the newest entries (counted, never blocking
// the alarm path). Close the subscription when done.
func (c *Controller) SubscribeAlarms(buf int) *alarms.Subscription {
	return c.AlarmPipeline().Subscribe(buf)
}

// AlarmHistory queries the bounded alarm history.
func (c *Controller) AlarmHistory(f alarms.Filter) []alarms.Entry {
	return c.AlarmPipeline().History(f)
}

// AlarmStats reports the pipeline's traffic counters.
func (c *Controller) AlarmStats() alarms.Stats {
	return c.AlarmPipeline().Stats()
}

// SetAlarmContext installs the base context under which the alarm path —
// RaiseAlarm, trap handling, loop dispatch — runs. A daemon passes its
// lifetime context so a shutdown stops alarm work promptly; nil restores
// context.Background.
func (c *Controller) SetAlarmContext(ctx context.Context) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.alarmCtx = ctx
}

func (c *Controller) alarmContext() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.alarmCtx != nil {
		return c.alarmCtx
	}
	return context.Background()
}

// OnAlarm registers an alarm handler.
func (c *Controller) OnAlarm(fn func(types.Alarm)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.handlers = append(c.handlers, fn)
}

// Alarms returns the alarms currently in the bounded history, oldest
// first. Unlike the pre-pipeline log this cannot grow without bound: an
// alarm storm keeps only the newest History entries, and suppressed
// repeats fold into one entry (use AlarmHistory for fold counts).
func (c *Controller) Alarms() []types.Alarm {
	hist := c.AlarmPipeline().History(alarms.Filter{})
	out := make([]types.Alarm, len(hist))
	for i := range hist {
		out[i] = hist[i].Alarm
	}
	return out
}

// AlarmsFor filters the history by reason.
func (c *Controller) AlarmsFor(r types.Reason) []types.Alarm {
	hist := c.AlarmPipeline().History(alarms.Filter{Reason: r})
	out := make([]types.Alarm, 0, len(hist))
	for i := range hist {
		out = append(out, hist[i].Alarm)
	}
	return out
}

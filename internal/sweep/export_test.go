package sweep

// InUse reports the slots currently held (a point-in-time snapshot).
func (l *Limiter) InUse() int { return len(l.sem) }

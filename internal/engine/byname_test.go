package engine

// Name-keyed forms of the record writes a Task makes, for tests that drive
// the checkpoint store without a task: each finds (or creates and grows)
// the job's record under the store's lock, the way a task's Start does,
// then writes through it.

func (s *CheckpointStore) startJob(job string, partitions []int, owner Incarnation, into []int64) error {
	_, err := s.start(job, partitions, owner, into)
	return err
}

func (s *CheckpointStore) stopJob(job string, partitions []int, owner Incarnation, offsets []int64) {
	s.recordFor(job, partitions).stop(partitions, owner, offsets)
}

func (s *CheckpointStore) checkpointJob(job string, partitions []int, offsets []int64, stateBytes int64) {
	s.recordFor(job, partitions).checkpoint(partitions, offsets, stateBytes)
}

// recordFor returns job's record, created and grown to hold partitions.
func (s *CheckpointStore) recordFor(job string, partitions []int) *jobCheckpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recordLocked(job, partitions)
}

// respecOne restarts one task in place through a one-entry Handover on
// the store the task was started on.
func respecOne(task *Task, spec *TaskSpec, profile *Profile) bool {
	batch := [1]Respec{{Task: task, Spec: spec, Profile: profile}}
	task.rec.store.Handover(batch[:])
	return batch[0].Done
}

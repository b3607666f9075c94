"""Log record model.

The paper distinguishes *data log records* (creation/modification/deletion of
objects; REDO-only, so they carry only the new value) and *transaction log
records* (BEGIN / COMMIT / ABORT milestones).  Every record is timestamped so
the recovery manager can re-establish temporal order even after
recirculation scrambles physical order, and carries a log sequence number
(LSN) to break timestamp ties deterministically.
"""
